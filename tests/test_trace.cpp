// Unit tests for the trace model: loss traces, the Gilbert–Elliott chain,
// the Table-1 catalog, the calibrated generator, and serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "net/topology_builder.hpp"
#include "trace/catalog.hpp"
#include "trace/gilbert_elliott.hpp"
#include "trace/loss_trace.hpp"
#include "trace/serialization.hpp"
#include "trace/trace_generator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cesrm::trace {
namespace {

std::shared_ptr<const net::MulticastTree> small_tree() {
  return std::make_shared<net::MulticastTree>(
      net::parse_tree("0(1(3 4) 2(5))"));
}

// ------------------------------------------------------------ LossTrace ----

TEST(LossTrace, ConstructionAndIndexing) {
  LossTrace t("T", small_tree(), sim::SimTime::millis(80), 100);
  EXPECT_EQ(t.receiver_count(), 3u);
  EXPECT_EQ(t.packet_count(), 100);
  EXPECT_EQ(t.receiver_node(0), 3);
  EXPECT_EQ(t.receiver_node(2), 5);
  EXPECT_EQ(t.receiver_index(4), 1u);
  EXPECT_THROW(t.receiver_index(1), util::CheckError);  // router
  EXPECT_EQ(t.duration(), sim::SimTime::seconds(8));
}

TEST(LossTrace, SetAndQueryLosses) {
  LossTrace t("T", small_tree(), sim::SimTime::millis(80), 10);
  EXPECT_FALSE(t.lost(0, 5));
  t.set_lost(0, 5);
  t.set_lost(2, 5);
  EXPECT_TRUE(t.lost(0, 5));
  EXPECT_TRUE(t.lost_by_node(3, 5));
  EXPECT_FALSE(t.lost(1, 5));
  EXPECT_EQ(t.pattern(5), 0b101u);
  EXPECT_EQ(t.pattern(4), 0u);
  t.set_lost(0, 5, false);
  EXPECT_FALSE(t.lost(0, 5));
}

TEST(LossTrace, AggregateCounters) {
  LossTrace t("T", small_tree(), sim::SimTime::millis(80), 10);
  t.set_lost(0, 1);
  t.set_lost(1, 1);
  t.set_lost(0, 2);
  EXPECT_EQ(t.total_losses(), 3u);
  EXPECT_EQ(t.receiver_losses(0), 2u);
  EXPECT_EQ(t.receiver_losses(2), 0u);
  EXPECT_DOUBLE_EQ(t.loss_rate(), 3.0 / 30.0);
}

TEST(LossTrace, PatternHistogram) {
  LossTrace t("T", small_tree(), sim::SimTime::millis(80), 10);
  t.set_lost(0, 1);
  t.set_lost(0, 2);
  t.set_lost(1, 3);
  const auto hist = t.pattern_histogram();
  EXPECT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist.at(0b001), 2u);
  EXPECT_EQ(hist.at(0b010), 1u);
}

TEST(LossTrace, PatternRepeatFraction) {
  LossTrace t("T", small_tree(), sim::SimTime::millis(80), 10);
  // Lossy packets at 1, 2, 3 with patterns A, A, B → 1 repeat out of 2.
  t.set_lost(0, 1);
  t.set_lost(0, 2);
  t.set_lost(1, 3);
  EXPECT_DOUBLE_EQ(t.pattern_repeat_fraction(), 0.5);
}

TEST(LossTrace, MeanBurstLength) {
  LossTrace t("T", small_tree(), sim::SimTime::millis(80), 10);
  // Receiver 0: bursts of 3 and 1 → 2 bursts, 4 losses.
  for (net::SeqNo i : {1, 2, 3, 7}) t.set_lost(0, i);
  EXPECT_DOUBLE_EQ(t.mean_burst_length(), 2.0);
}

/// A star of `receivers` leaves under the root: 0(1 2 … receivers).
std::shared_ptr<const net::MulticastTree> star(int receivers) {
  std::string text = "0(1";
  for (int r = 2; r <= receivers; ++r) {
    text += ' ';
    text += std::to_string(r);
  }
  text += ')';
  return std::make_shared<net::MulticastTree>(net::parse_tree(text));
}

TEST(LossTrace, AgreesWithAPerCellReference) {
  // Random sets and clears against one bool per (receiver, packet) cell,
  // at one receiver, and at one short of and exactly the 32-bit pattern.
  for (const int receivers : {1, 31, 32}) {
    SCOPED_TRACE("receivers " + std::to_string(receivers));
    const auto nr = static_cast<std::size_t>(receivers);
    const net::SeqNo packets = 300;
    LossTrace t("REF", star(receivers), sim::SimTime::millis(40), packets);
    ASSERT_EQ(t.receiver_count(), nr);
    std::vector<std::vector<bool>> ref(nr, std::vector<bool>(packets, false));
    util::Rng rng(static_cast<std::uint64_t>(receivers));
    for (int op = 0; op < 20000; ++op) {
      const auto r = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(nr) - 1));
      const net::SeqNo i = rng.uniform_int(0, packets - 1);
      const bool lost = rng.bernoulli(0.6);
      t.set_lost(r, i, lost);
      ref[r][static_cast<std::size_t>(i)] = lost;
    }
    std::uint64_t total = 0, bursts = 0;
    for (std::size_t r = 0; r < nr; ++r) {
      std::uint64_t mine = 0;
      for (net::SeqNo i = 0; i < packets; ++i) {
        const bool cell = ref[r][static_cast<std::size_t>(i)];
        ASSERT_EQ(t.lost(r, i), cell) << "receiver " << r << " seq " << i;
        mine += cell;
        bursts += cell && (i == 0 || !ref[r][static_cast<std::size_t>(i - 1)]);
      }
      EXPECT_EQ(t.receiver_losses(r), mine) << "receiver " << r;
      total += mine;
    }
    for (net::SeqNo i = 0; i < packets; ++i) {
      LossPattern p = 0;
      for (std::size_t r = 0; r < nr; ++r)
        if (ref[r][static_cast<std::size_t>(i)]) p |= LossPattern{1} << r;
      ASSERT_EQ(t.pattern(i), p) << "seq " << i;
    }
    EXPECT_EQ(t.total_losses(), total);
    ASSERT_GT(bursts, 0u);
    EXPECT_DOUBLE_EQ(t.mean_burst_length(),
                     static_cast<double>(total) / static_cast<double>(bursts));
  }
}

TEST(LossTrace, RejectsMoreReceiversThanPatternBits) {
  EXPECT_THROW(LossTrace("WIDE", star(33), sim::SimTime::millis(40), 10),
               util::CheckError);
}

TEST(LossTrace, RejectsOutOfRange) {
  LossTrace t("T", small_tree(), sim::SimTime::millis(80), 10);
  EXPECT_THROW(t.set_lost(0, 10), util::CheckError);
  EXPECT_THROW(t.set_lost(3, 0), util::CheckError);
}

// ------------------------------------------------------- GilbertElliott ----

TEST(GilbertElliott, FromRateAndBurstRoundTrips) {
  const auto ge = GilbertElliott::from_rate_and_burst(0.05, 4.0);
  EXPECT_NEAR(ge.stationary_loss_rate(), 0.05, 1e-12);
  EXPECT_NEAR(ge.mean_burst_length(), 4.0, 1e-12);
}

TEST(GilbertElliott, EmpiricalRateMatchesStationary) {
  auto ge = GilbertElliott::from_rate_and_burst(0.08, 3.0);
  util::Rng rng(99);
  int losses = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) losses += ge.step(rng);
  EXPECT_NEAR(static_cast<double>(losses) / n, 0.08, 0.005);
}

TEST(GilbertElliott, EmpiricalBurstLengthMatches) {
  auto ge = GilbertElliott::from_rate_and_burst(0.05, 5.0);
  util::Rng rng(101);
  int bursts = 0, losses = 0;
  bool in_burst = false;
  for (int i = 0; i < 400000; ++i) {
    if (ge.step(rng)) {
      ++losses;
      if (!in_burst) ++bursts;
      in_burst = true;
    } else {
      in_burst = false;
    }
  }
  EXPECT_NEAR(static_cast<double>(losses) / bursts, 5.0, 0.3);
}

TEST(GilbertElliott, ZeroRateNeverLoses) {
  auto ge = GilbertElliott::from_rate_and_burst(0.0, 2.0);
  util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(ge.step(rng));
}

TEST(GilbertElliott, ResetClearsState) {
  GilbertElliott ge(1.0, 0.0);  // enters BAD and stays
  util::Rng rng(1);
  ge.step(rng);
  EXPECT_TRUE(ge.in_bad_state());
  ge.reset();
  EXPECT_FALSE(ge.in_bad_state());
}

TEST(GilbertElliott, RejectsInvalidParameters) {
  EXPECT_THROW(GilbertElliott(-0.1, 0.5), util::CheckError);
  EXPECT_THROW(GilbertElliott(0.5, 1.5), util::CheckError);
  EXPECT_THROW(GilbertElliott::from_rate_and_burst(1.0, 2.0),
               util::CheckError);
  EXPECT_THROW(GilbertElliott::from_rate_and_burst(0.1, 0.5),
               util::CheckError);
}

// -------------------------------------------------------------- catalog ----

TEST(Catalog, HasAllFourteenTraces) {
  const auto& specs = table1_specs();
  ASSERT_EQ(specs.size(), 14u);
  for (int i = 0; i < 14; ++i)
    EXPECT_EQ(specs[static_cast<std::size_t>(i)].id, i + 1);
}

TEST(Catalog, Table1RowsMatchPaper) {
  const auto& t1 = table1_spec(1);
  EXPECT_EQ(t1.name, "RFV960419");
  EXPECT_EQ(t1.receivers, 12);
  EXPECT_EQ(t1.depth, 6);
  EXPECT_EQ(t1.period_ms, 80);
  EXPECT_EQ(t1.packets, 45001);
  EXPECT_EQ(t1.losses, 24086);

  const auto& t3 = table1_spec(3);
  EXPECT_EQ(t3.name, "UCB960424");
  EXPECT_EQ(t3.receivers, 15);
  EXPECT_EQ(t3.depth, 7);
  EXPECT_EQ(t3.period_ms, 40);

  const auto& t14 = table1_spec(14);
  EXPECT_EQ(t14.name, "WRN951218");
  EXPECT_EQ(t14.packets, 69994);
  EXPECT_EQ(t14.losses, 43578);
}

TEST(Catalog, DurationMatchesPublishedColumn) {
  // Table 1 lists e.g. trace 2 as 1:39:19 — implied by 148970 × 40 ms.
  EXPECT_NEAR(table1_spec(2).duration_seconds(), 5958.8, 0.5);
  EXPECT_NEAR(table1_spec(1).duration_seconds(), 3600.0, 0.5);
}

TEST(Catalog, LookupByName) {
  EXPECT_EQ(std::ranges::find(table1_specs(), "WRN951216", &TraceSpec::name)
                ->id,
            13);
  EXPECT_THROW(table1_spec(0), util::CheckError);
  EXPECT_THROW(table1_spec(15), util::CheckError);
}

// ------------------------------------------------------------ generator ----

TEST(TraceGenerator, MatchesSpecShapeAndLossBudget) {
  TraceSpec spec;
  spec.id = 0;
  spec.name = "GEN";
  spec.receivers = 9;
  spec.depth = 4;
  spec.period_ms = 80;
  spec.packets = 20000;
  spec.losses = 9000;  // 5% of receiver-cells
  spec.seed = 77;
  const auto gen = generate_trace(spec);
  ASSERT_NE(gen.loss, nullptr);
  EXPECT_EQ(static_cast<int>(gen.loss->receiver_count()), 9);
  EXPECT_EQ(gen.loss->tree().max_depth(), 4);
  EXPECT_EQ(gen.loss->packet_count(), 20000);
  // Calibration tolerance is 2%.
  EXPECT_NEAR(static_cast<double>(gen.loss->total_losses()), 9000.0,
              0.02 * 9000.0 + 1.0);
}

TEST(TraceGenerator, DeterministicInSeed) {
  TraceSpec spec;
  spec.name = "GEN";
  spec.receivers = 5;
  spec.depth = 3;
  spec.period_ms = 40;
  spec.packets = 5000;
  spec.losses = 1000;
  spec.seed = 123;
  const auto a = generate_trace(spec);
  const auto b = generate_trace(spec);
  EXPECT_EQ(a.loss->tree().to_string(), b.loss->tree().to_string());
  EXPECT_EQ(a.loss->total_losses(), b.loss->total_losses());
  for (net::SeqNo i = 0; i < spec.packets; ++i)
    ASSERT_EQ(a.loss->pattern(i), b.loss->pattern(i)) << "seq " << i;
}

TEST(TraceGenerator, ProducesBurstyLocality) {
  TraceSpec spec;
  spec.name = "GEN";
  spec.receivers = 8;
  spec.depth = 4;
  spec.period_ms = 80;
  spec.packets = 20000;
  spec.losses = 8000;
  spec.seed = 5;
  const auto gen = generate_trace(spec);
  // Gilbert–Elliott bursts make consecutive lossy packets repeat their
  // loss pattern far more often than independent losses would.
  EXPECT_GT(gen.loss->pattern_repeat_fraction(), 0.3);
  EXPECT_GT(gen.loss->mean_burst_length(), 1.3);
}

TEST(TraceGenerator, GroundTruthExplainsEveryLoss) {
  TraceSpec spec;
  spec.name = "GEN";
  spec.receivers = 6;
  spec.depth = 3;
  spec.period_ms = 40;
  spec.packets = 5000;
  spec.losses = 1500;
  spec.seed = 11;
  const auto gen = generate_trace(spec);
  const auto& tree = gen.loss->tree();
  ASSERT_EQ(gen.true_drop_links.size(), 5000u);
  for (net::SeqNo i = 0; i < spec.packets; ++i) {
    const auto& drops = gen.true_drop_links[static_cast<std::size_t>(i)];
    for (std::size_t r = 0; r < gen.loss->receiver_count(); ++r) {
      // A receiver lost the packet iff some dropped link is its ancestor.
      bool covered = false;
      for (net::LinkId l : drops)
        covered |= tree.is_ancestor(l, gen.loss->receiver_node(r));
      ASSERT_EQ(covered, gen.loss->lost(r, i))
          << "packet " << i << " receiver " << r;
    }
  }
}

TEST(TraceGenerator, Table1TraceSmoke) {
  // Generate the smallest Table-1 trace end to end.
  // WRN950919: 17637 packets.
  const auto gen = generate_trace(table1_spec(4));
  const auto& spec = table1_spec(4);
  EXPECT_EQ(static_cast<int>(gen.loss->receiver_count()), spec.receivers);
  EXPECT_EQ(gen.loss->tree().max_depth(), spec.depth);
  EXPECT_NEAR(
      static_cast<double>(gen.loss->total_losses()),
      static_cast<double>(spec.losses),
      0.02 * static_cast<double>(spec.losses) + 1.0);
}

// ------------------------------------------------------ generator pins ----
//
// Exact outputs of generate_trace, recorded from the packet-major
// generator the link-major one replaced. Any change to seeding, the draw
// stream, the calibration search or the emission order moves them.

/// FNV-1a over every packet's loss pattern and ground-truth drop links.
std::uint64_t trace_digest(const GeneratedTrace& gen) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (net::SeqNo i = 0; i < gen.loss->packet_count(); ++i) {
    mix(gen.loss->pattern(i));
    const auto& drops = gen.true_drop_links.at(static_cast<std::size_t>(i));
    mix(drops.size());
    for (net::LinkId l : drops) mix(static_cast<std::uint64_t>(l));
  }
  return h;
}

TraceSpec pin_spec(net::SeqNo packets, std::int64_t losses,
                   std::uint64_t seed = 2024) {
  TraceSpec spec;
  spec.name = "PIN";
  spec.receivers = 6;
  spec.depth = 3;
  spec.period_ms = 40;
  spec.packets = packets;
  spec.losses = losses;
  spec.seed = seed;
  return spec;
}

struct GeneratorPin {
  double rate_multiplier;
  int calibration_iters;
  std::uint64_t total_losses;
  std::uint64_t digest;
};

GeneratedTrace expect_pin(const TraceSpec& spec, const GeneratorPin& pin) {
  auto gen = generate_trace(spec);
  EXPECT_EQ(gen.rate_multiplier, pin.rate_multiplier);
  EXPECT_EQ(gen.calibration_iters, pin.calibration_iters);
  EXPECT_EQ(gen.loss->total_losses(), pin.total_losses);
  EXPECT_EQ(gen.true_drop_links.size(),
            static_cast<std::size_t>(spec.packets));
  EXPECT_EQ(trace_digest(gen), pin.digest);
  return gen;
}

TEST(GeneratorPins, UncappedTable1Traces) {
  // Trace 2's 148 970 packets end 42 bits into a word; trace 12 doubles
  // its bracket to 8 before bisecting.
  const std::pair<int, GeneratorPin> pins[] = {
      {2, {0x1.ep-2, 7, 55211u, 0x4c40523c7394c2ceULL}},
      {4, {0x1.1p+1, 8, 10308u, 0x476ae092855120feULL}},
      {5, {0x1p-1, 3, 15854u, 0x50402337c28bcb41ULL}},
      {12, {0x1.58p+2, 10, 20923u, 0xdb918fbc43834440ULL}},
  };
  for (const auto& [id, pin] : pins) {
    SCOPED_TRACE("trace " + std::to_string(id));
    expect_pin(table1_spec(id), pin);
  }
}

TEST(GeneratorPins, AllTable1TracesCappedAt2000) {
  const GeneratorPin pins[14] = {
      {0x1.dap-2, 11, 1084u, 0x3828b7dc5bed5a62ULL},
      {0x1.5p-1, 7, 752u, 0x781453f8a5fd591cULL},
      {0x1.0bep-1, 14, 724u, 0x157f4ddcc4ddeca5ULL},
      {0x1.ep+0, 6, 1160u, 0x103a93a315b5332aULL},
      {0x1.d8p-2, 9, 555u, 0xfd1e521fd3a4da23ULL},
      {0x1.8p-1, 4, 909u, 0x1c412c9435fe95dcULL},
      {0x1.ap-1, 6, 1303u, 0xd417c5cc5b752af7ULL},
      {0x1.a4p-3, 11, 604u, 0xb0628e0ba85fc69cULL},
      {0x1.ap-1, 6, 1463u, 0xc56019132f0c9a0cULL},
      {0x1.7p-2, 8, 745u, 0x1f06f53917f6e27dULL},
      {0x1.bp-2, 8, 1218u, 0xa6cfdde26757afe3ULL},
      {0x1.5ap+2, 12, 1078u, 0xc671ed81da4ce13fULL},
      {0x1.38p+0, 8, 1485u, 0xb213440b128fc99eULL},
      {0x1.28p+0, 8, 1246u, 0x04ff7871dc54af3fULL},
  };
  for (int id = 1; id <= 14; ++id) {
    SCOPED_TRACE("trace " + std::to_string(id));
    expect_pin(capped_spec(table1_spec(id), 2000),
               pins[static_cast<std::size_t>(id - 1)]);
  }
}

TEST(GeneratorPins, WordBoundaryLengths) {
  // One packet, and one short of, exactly, and one past a 64-bit word.
  const std::pair<net::SeqNo, GeneratorPin> pins[] = {
      {1, {0x1p+3, 37, 2u, 0x8c338e05afce4945ULL}},
      {63, {0x1p+0, 2, 15u, 0x1cb0c1ada700e5c1ULL}},
      {64, {0x1.34p+0, 9, 16u, 0x489596b6aa3538ceULL}},
      {65, {0x1.34p+0, 9, 16u, 0xd75b94db27bcbc4eULL}},
  };
  for (const auto& [packets, pin] : pins) {
    SCOPED_TRACE("packets " + std::to_string(packets));
    expect_pin(pin_spec(packets, std::max<std::int64_t>(1, packets / 4)),
               pin);
  }
}

TEST(GeneratorPins, UnreachableTargetSaturatesEveryLink) {
  // Twice the cells there are: the bracket doubles to 4096, every link's
  // rate hits the 0.95 cap, so p_gb = 1 and GOOD→BAD takes no draw.
  const auto gen = expect_pin(pin_spec(1000, 6 * 1000 * 2),
                              {0x1p+12, 40, 5960u, 0xb2820693f9ceb42fULL});
  for (net::LinkId l : gen.loss->tree().links())
    EXPECT_EQ(gen.link_loss_rate[static_cast<std::size_t>(l)], 0.95);
}

TEST(GeneratorPins, OneLossTargetHalvesToTheFloor) {
  expect_pin(pin_spec(10000, 1, 37),
             {0x1p-12, 14, 1u, 0xa25023e2eb028084ULL});
}

// -------------------------------------------------------- serialization ----

TEST(Serialization, RoundTripWithTruth) {
  TraceSpec spec;
  spec.name = "SER";
  spec.receivers = 5;
  spec.depth = 3;
  spec.period_ms = 40;
  spec.packets = 2000;
  spec.losses = 600;
  spec.seed = 3;
  const auto gen = generate_trace(spec);

  std::stringstream ss;
  write_trace(ss, *gen.loss, &gen.true_drop_links);
  const TraceFile loaded = read_trace(ss);

  EXPECT_EQ(loaded.loss->name(), "SER");
  EXPECT_EQ(loaded.loss->packet_count(), 2000);
  EXPECT_EQ(loaded.loss->period(), sim::SimTime::millis(40));
  EXPECT_EQ(loaded.loss->tree().to_string(), gen.loss->tree().to_string());
  EXPECT_TRUE(loaded.has_truth());
  for (net::SeqNo i = 0; i < 2000; ++i) {
    ASSERT_EQ(loaded.loss->pattern(i), gen.loss->pattern(i)) << "seq " << i;
    ASSERT_TRUE(std::ranges::equal(
        loaded.true_drop_links[static_cast<std::size_t>(i)],
        gen.true_drop_links[static_cast<std::size_t>(i)]))
        << "seq " << i;
  }
}

TEST(Serialization, RoundTripWithoutTruth) {
  LossTrace t("NOTRUTH", small_tree(), sim::SimTime::millis(80), 50);
  t.set_lost(0, 10);
  t.set_lost(2, 10);
  t.set_lost(1, 49);
  std::stringstream ss;
  write_trace(ss, t);
  const TraceFile loaded = read_trace(ss);
  EXPECT_FALSE(loaded.has_truth());
  EXPECT_EQ(loaded.loss->pattern(10), 0b101u);
  EXPECT_EQ(loaded.loss->pattern(49), 0b010u);
  EXPECT_EQ(loaded.loss->total_losses(), 3u);
}

TEST(Serialization, RejectsCorruptInput) {
  {
    std::stringstream ss("not a trace\n");
    EXPECT_THROW(read_trace(ss), util::CheckError);
  }
  {
    std::stringstream ss("# cesrm-trace v1\nname X\nend\n");
    EXPECT_THROW(read_trace(ss), util::CheckError);  // missing fields
  }
  {
    // Missing 'end'.
    std::stringstream ss(
        "# cesrm-trace v1\nname X\nperiod_ms 40\npackets 2\ntree 0(1 2)\n"
        "loss 0 2x0\nloss 1 2x0\n");
    EXPECT_THROW(read_trace(ss), util::CheckError);
  }
  {
    // RLE length mismatch.
    std::stringstream ss(
        "# cesrm-trace v1\nname X\nperiod_ms 40\npackets 3\ntree 0(1 2)\n"
        "loss 0 2x0\nloss 1 3x0\nend\n");
    EXPECT_THROW(read_trace(ss), util::CheckError);
  }
}

/// A 4-packet trace on 0(1(3 4) 2(5)) (receivers: nodes 3, 4, 5) whose
/// receivers lose packets {1, 2, 3}, {1} and {3}, with `lines` before end.
std::string small_file(const std::string& lines,
                       const std::string& loss =
                           "loss 0 1x0 3x1\nloss 1 1x0 1x1 2x0\n"
                           "loss 2 3x0 1x1\n") {
  return "# cesrm-trace v1\nname S\nperiod_ms 40\npackets 4\n"
         "tree 0(1(3 4) 2(5))\n" +
         loss + lines + "end\n";
}

TraceFile read_text(const std::string& text) {
  std::stringstream ss(text);
  return read_trace(ss);
}

TEST(Serialization, ReadsTruthLinesInAnySeqOrder) {
  const TraceFile file =
      read_text(small_file("truth 3 2 3\ntruth 1 1\ntruth 2 3\n"));
  const DropLinkTable& truth = file.true_drop_links;
  ASSERT_EQ(truth.size(), 4u);
  EXPECT_TRUE(truth[0].empty());
  EXPECT_TRUE(std::ranges::equal(truth[1], std::vector<net::LinkId>{1}));
  EXPECT_TRUE(std::ranges::equal(truth[2], std::vector<net::LinkId>{3}));
  // A line's links keep their order.
  EXPECT_TRUE(std::ranges::equal(truth[3], std::vector<net::LinkId>{2, 3}));
  std::stringstream out;
  write_trace(out, *file.loss, &truth);
  EXPECT_NE(out.str().find("truth 1 1\ntruth 2 3\ntruth 3 2 3\nend\n"),
            std::string::npos);
}

TEST(Serialization, RejectsTruthLinksOutsideTheTree) {
  // The tree has nodes 0-5; node 0 is the root, which has no link.
  for (const char* link : {"999999", "6", "0", "-1", "99999999999"}) {
    SCOPED_TRACE(link);
    EXPECT_THROW(read_text(small_file("truth 1 1\ntruth 2 " +
                                      std::string(link) + "\n")),
                 util::CheckError);
  }
  // Leaf link 5, the tree's highest id, is a link: packet 3 is lost below
  // links 3 and 5.
  EXPECT_NO_THROW(
      read_text(small_file("truth 1 1\ntruth 2 3\ntruth 3 3 5\n")));
}

TEST(Serialization, RejectsTruthThatDoesNotExplainTheLosses) {
  // small_file loses packet 1 at nodes 3 and 4, 2 at 3, and 3 at 3 and 5.
  EXPECT_NO_THROW(
      read_text(small_file("truth 1 1\ntruth 2 3\ntruth 3 2 3\n")));
  for (const char* truth : {
           // A wrong link: link 4 loses packet 2 at node 4, which has it.
           "truth 1 1\ntruth 2 4\ntruth 3 2 3\n",
           // A link too high: link 1 loses packet 2 at node 4 as well.
           "truth 1 1\ntruth 2 1\ntruth 3 2 3\n",
           // Too few links: packet 3 is lost at node 5 too.
           "truth 1 1\ntruth 2 3\ntruth 3 3\n",
           // A missing line: lossy packet 2 has none.
           "truth 1 1\ntruth 3 2 3\n",
           // A line on a loss-free packet, with or without links.
           "truth 0 2\ntruth 1 1\ntruth 2 3\ntruth 3 2 3\n",
           "truth 0\ntruth 1 1\ntruth 2 3\ntruth 3 2 3\n",
       }) {
    SCOPED_TRACE(truth);
    EXPECT_THROW(read_text(small_file(truth)), util::CheckError);
  }
  try {
    read_text(small_file("truth 1 1\ntruth 2 1\ntruth 3 2 3\n"));
    FAIL() << "a truth line that does not explain its packet should throw";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("packet 2"), std::string::npos)
        << e.what();
  }

  // A generated file with every truth link rewritten to link 1 loads no
  // more: link 1 explains only the packets lost exactly below it.
  TraceSpec spec;
  spec.name = "REWRITE";
  spec.receivers = 5;
  spec.depth = 3;
  spec.period_ms = 40;
  spec.packets = 200;
  spec.losses = 60;
  spec.seed = 4;
  const auto gen = generate_trace(spec);
  std::stringstream written;
  write_trace(written, *gen.loss, &gen.true_drop_links);
  std::string rewritten, line;
  while (std::getline(written, line)) {
    if (line.starts_with("truth "))
      line = line.substr(0, line.find(' ', 6)) + " 1";
    rewritten += line + "\n";
  }
  EXPECT_NO_THROW(read_text(written.str()));
  try {
    read_text(rewritten);
    FAIL() << "truth links rewritten to link 1 should throw";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("truth links of packet"),
              std::string::npos)
        << e.what();
  }
}

TEST(Serialization, RejectsASecondLossLineForOneReceiver) {
  // Three loss lines for three receivers, but receiver 0's twice and
  // receiver 1's not at all.
  EXPECT_THROW(read_text(small_file("", "loss 0 1x0 3x1\nloss 0 4x0\n"
                                        "loss 2 3x0 1x1\n")),
               util::CheckError);
}

TEST(Serialization, RejectsASecondTruthLineForOnePacket) {
  EXPECT_THROW(read_text(small_file("truth 1 1\ntruth 1 3\n")),
               util::CheckError);
}

TEST(Serialization, RejectsRunLengthsPastThePacketCount) {
  // Runs whose sum overflows a 64-bit count, and one run too long.
  EXPECT_THROW(read_text(small_file(
                   "", "loss 0 1x0 3x1\nloss 1 1x0 1x1 2x0\n"
                       "loss 2 9223372036854775807x0 "
                       "9223372036854775807x0\n")),
               util::CheckError);
  EXPECT_THROW(read_text(small_file("", "loss 0 1x0 3x1\nloss 1 5x1\n"
                                        "loss 2 3x0 1x1\n")),
               util::CheckError);
}

TEST(Serialization, FileRoundTrip) {
  LossTrace t("FILE", small_tree(), sim::SimTime::millis(80), 20);
  t.set_lost(1, 7);
  const std::string path = testing::TempDir() + "/cesrm_trace_test.txt";
  save_trace(path, t);
  const TraceFile loaded = load_trace(path);
  EXPECT_EQ(loaded.loss->name(), "FILE");
  EXPECT_TRUE(loaded.loss->lost(1, 7));
}

// --------------------------------------------------------- trace corpus ----
//
// tests/corpus/trace/UCB960424-cap2000.trace is `cesrm_cli generate
// --trace=3 --packets-cap=2000` as written before traces were stored as
// loss patterns: the file format and every generated trace must not move.

constexpr const char* kCorpusTrace = "UCB960424-cap2000.trace";

std::string corpus_bytes(const std::string& name) {
  std::ifstream in(std::string(CESRM_CORPUS_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot open corpus file " << name;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(TraceCorpus, GeneratedTraceWritesTheCommittedBytes) {
  // cesrm_cli generate's --packets-cap scaling.
  TraceSpec spec = table1_spec(3);
  const net::SeqNo cap = 2000;
  spec.losses = static_cast<std::int64_t>(static_cast<double>(spec.losses) *
                                          static_cast<double>(cap) /
                                          static_cast<double>(spec.packets));
  spec.packets = cap;
  const auto gen = generate_trace(spec);
  std::stringstream out;
  write_trace(out, *gen.loss, &gen.true_drop_links);
  EXPECT_EQ(out.str(), corpus_bytes(kCorpusTrace));
}

TEST(TraceCorpus, ReadWriteRoundTripsTheCommittedBytes) {
  const std::string bytes = corpus_bytes(kCorpusTrace);
  const TraceFile file = read_text(bytes);
  ASSERT_TRUE(file.has_truth());
  EXPECT_EQ(file.true_drop_links.size(), 2000u);
  std::stringstream out;
  write_trace(out, *file.loss, &file.true_drop_links);
  EXPECT_EQ(out.str(), bytes);
}

// -------------------------------------------------------- DropLinkTable ----

TEST(DropLinkTable, ClosesPacketsInSeqOrder) {
  DropLinkTable table;
  EXPECT_TRUE(table.empty());
  table.end_packet();  // packet 0: none
  table.add_link(4);
  table.add_link(2);
  table.end_packet();  // packet 1: 4, 2
  table.end_packet();  // packet 2: none
  table.add_link(7);
  table.end_packet();  // packet 3: 7
  ASSERT_EQ(table.size(), 4u);
  EXPECT_FALSE(table.empty());
  EXPECT_TRUE(table[0].empty());
  EXPECT_TRUE(std::ranges::equal(table[1], std::vector<net::LinkId>{4, 2}));
  EXPECT_TRUE(table.at(2).empty());
  EXPECT_TRUE(std::ranges::equal(table.at(3), std::vector<net::LinkId>{7}));
  EXPECT_THROW(table.at(4), util::CheckError);
}

}  // namespace
}  // namespace cesrm::trace
