// Full tag downlink pipeline on frontend-synthesized streams: lock, period,
// payload recovery, erasure alignment, masks.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>

#include "common/random.hpp"
#include "dsp/kernels/kernels.hpp"
#include "phy/packet.hpp"
#include "tag/tag_node.hpp"

namespace bis::tag {
namespace {

phy::SlopeAlphabet make_alphabet(std::size_t bits = 5) {
  phy::SlopeAlphabetConfig c;
  c.bandwidth_hz = 1e9;
  c.start_frequency_hz = 9e9;
  c.chirp_period_s = 120e-6;
  c.min_chirp_duration_s = 36e-6;
  c.bits_per_symbol = bits;
  c.delay_line.length_diff_m = 45.0 * 0.0254;
  return phy::SlopeAlphabet::design(c);
}

TagNodeConfig node_config() {
  TagNodeConfig cfg;
  cfg.frontend.delay_line.length_diff_m = 45.0 * 0.0254;
  cfg.frontend.envelope.conversion_gain = 1900.0;
  cfg.frontend.envelope.output_noise_density = 1e-10;
  cfg.frontend.adc.sample_rate_hz = 500e3;
  cfg.frontend.adc.full_scale = 1.65;
  cfg.uplink.chirp_period_s = 120e-6;
  return cfg;
}

struct Link {
  phy::SlopeAlphabet alphabet;
  TagNode node;
  std::vector<IncidentPath> paths;

  explicit Link(std::size_t bits = 5, double amp = 1e-4)
      : alphabet(make_alphabet(bits)),
        node(node_config(), alphabet, Rng(11)),
        paths{{amp, 0.0, 0.0}} {
    node.calibrate(amp);
    node.frontend().auto_gain(paths);
  }

  dsp::RVec transmit(const phy::DownlinkPacket& packet,
                     const std::vector<bool>& absorptive = {}) {
    const auto frame = packet.to_frame(alphabet);
    std::unique_ptr<bool[]> flags(new bool[frame.size()]);
    for (std::size_t i = 0; i < frame.size(); ++i)
      flags[i] = absorptive.empty() ? true : absorptive[i];
    return node.frontend().receive_frame(
        frame.chirps(), paths, std::span<const bool>(flags.get(), frame.size()));
  }
};

TEST(TagDecoder, DecodesCleanPacket) {
  Link link;
  Rng rng(1);
  const auto payload = rng.bits(80);
  phy::PacketConfig pkt;
  const phy::DownlinkPacket packet(pkt, payload);
  const auto stream = link.transmit(packet);
  const auto rx = link.node.receive_downlink(stream, pkt);
  EXPECT_TRUE(rx.decode.locked);
  EXPECT_EQ(rx.decode.header_run, pkt.header_chirps);
  EXPECT_EQ(rx.decode.sync_run, pkt.sync_chirps);
  EXPECT_NEAR(rx.decode.estimated_period_s, 120e-6, 2e-6);
  EXPECT_TRUE(rx.packet.crc_ok);
  EXPECT_EQ(rx.packet.payload, payload);
}

TEST(TagDecoder, FramedBitsMatchExactly) {
  Link link;
  Rng rng(2);
  phy::PacketConfig pkt;
  const phy::DownlinkPacket packet(pkt, rng.bits(45));
  const auto stream = link.transmit(packet);
  const auto rx = link.node.receive_downlink(stream, pkt);
  ASSERT_TRUE(rx.decode.locked);
  const auto& sent = packet.framed_bits();
  ASSERT_GE(rx.decode.bits.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i)
    EXPECT_EQ(rx.decode.bits[i], sent[i]) << i;
}

TEST(TagDecoder, WorksAcrossSymbolSizes) {
  for (std::size_t bits : {2u, 3u, 6u}) {
    Link link(bits);
    Rng rng(100 + bits);
    phy::PacketConfig pkt;
    const auto payload = rng.bits(30);
    const phy::DownlinkPacket packet(pkt, payload);
    const auto stream = link.transmit(packet);
    const auto rx = link.node.receive_downlink(stream, pkt);
    EXPECT_TRUE(rx.decode.locked) << bits;
    EXPECT_TRUE(rx.packet.crc_ok) << bits;
    EXPECT_EQ(rx.packet.payload, payload) << bits;
  }
}

TEST(TagDecoder, MaskSkipsReflectiveChirpsInIntegratedMode) {
  // Preamble on every chirp; payload symbols only on absorptive chirps, as
  // the ISAC scheduler does. The decoder must reassemble the payload.
  Link link;
  Rng rng(3);
  const auto payload = rng.bits(20);
  phy::PacketConfig pkt;
  const phy::DownlinkPacket packet(pkt, payload);

  // Build a custom frame: preamble (all chirps), then payload symbols each
  // duplicated onto pairs of chirps where the second is reflective filler.
  const auto slots = packet.to_slots(link.alphabet);
  const std::size_t preamble = pkt.header_chirps + pkt.sync_chirps;
  std::vector<rf::ChirpParams> chirps;
  std::vector<bool> absorptive;
  for (std::size_t i = 0; i < preamble; ++i) {
    chirps.push_back(link.alphabet.chirp(slots[i]));
    absorptive.push_back(true);
  }
  for (std::size_t i = preamble; i < slots.size(); ++i) {
    chirps.push_back(link.alphabet.chirp(slots[i]));
    absorptive.push_back(true);
    chirps.push_back(link.alphabet.chirp(slots[i]));  // filler copy
    absorptive.push_back(false);                      // tag reflective
  }
  std::unique_ptr<bool[]> flags(new bool[chirps.size()]);
  for (std::size_t i = 0; i < chirps.size(); ++i) flags[i] = absorptive[i];
  const auto stream = link.node.frontend().receive_frame(
      chirps, link.paths, std::span<const bool>(flags.get(), chirps.size()));

  const auto rx = link.node.receive_downlink(stream, pkt, absorptive);
  EXPECT_TRUE(rx.decode.locked);
  EXPECT_TRUE(rx.packet.crc_ok);
  EXPECT_EQ(rx.packet.payload, payload);
}

TEST(TagDecoder, PreambleLengthsComeFromThePacket) {
  // A node built with no preamble settings decodes packets whose header and
  // sync fields are longer than the defaults: the decoder reads both
  // lengths from the packet config it is handed.
  Link link;
  phy::PacketConfig pkt;
  pkt.header_chirps = 12;
  pkt.sync_chirps = 4;
  for (std::uint64_t seed = 100; seed < 105; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const auto payload = rng.bits(80);
    const phy::DownlinkPacket packet(pkt, payload);
    const auto rx = link.node.receive_downlink(link.transmit(packet), pkt);
    EXPECT_TRUE(rx.decode.locked);
    EXPECT_EQ(rx.decode.header_run, 12u);
    EXPECT_EQ(rx.decode.sync_run, 4u);
    EXPECT_TRUE(rx.packet.crc_ok);
    EXPECT_EQ(rx.packet.payload, payload);
  }
}

TEST(TagDecoder, NoiseOnlyStreamDoesNotLock) {
  Link link;
  Rng rng(4);
  dsp::RVec noise(3600);
  for (auto& v : noise) v = rng.gaussian(0.0, 0.01);
  const auto rx = link.node.receive_downlink(noise, phy::PacketConfig{});
  EXPECT_FALSE(rx.decode.locked);
}

TEST(TagDecoder, AddressedPacketFiltered) {
  auto cfg = node_config();
  cfg.address = 0x11;
  const auto alphabet = make_alphabet();
  TagNode node(cfg, alphabet, Rng(5));
  node.calibrate(1e-4);
  const std::vector<IncidentPath> paths = {{1e-4, 0.0, 0.0}};
  node.frontend().auto_gain(paths);

  Rng rng(6);
  const auto payload = rng.bits(24);
  phy::PacketConfig pkt;
  pkt.tag_address = 0x22;  // addressed elsewhere
  const phy::DownlinkPacket packet(pkt, payload);
  const auto frame = packet.to_frame(alphabet);
  std::unique_ptr<bool[]> flags(new bool[frame.size()]);
  std::fill_n(flags.get(), frame.size(), true);
  const auto stream = node.frontend().receive_frame(
      frame.chirps(), paths, std::span<const bool>(flags.get(), frame.size()));
  const auto rx = node.receive_downlink(stream, pkt);
  EXPECT_TRUE(rx.decode.locked);
  EXPECT_TRUE(rx.packet.crc_ok);
  EXPECT_FALSE(rx.packet.address_match);
}

TEST(TagNode, CalibrationImprovesOverNominalUnderDispersion) {
  auto cfg = node_config();
  cfg.frontend.delay_line.dispersion_per_ghz = 0.045;  // strong dispersion
  const auto alphabet = make_alphabet();
  TagNode node(cfg, alphabet, Rng(7));
  const std::vector<IncidentPath> paths = {{1e-4, 0.0, 0.0}};
  node.frontend().auto_gain(paths);

  Rng rng(8);
  const auto payload = rng.bits(60);
  phy::PacketConfig pkt;
  const phy::DownlinkPacket packet(pkt, payload);
  const auto frame = packet.to_frame(alphabet);
  auto send = [&]() {
    std::unique_ptr<bool[]> flags(new bool[frame.size()]);
    std::fill_n(flags.get(), frame.size(), true);
    return node.frontend().receive_frame(
        frame.chirps(), paths, std::span<const bool>(flags.get(), frame.size()));
  };

  // Uncalibrated (nominal Eq. 11 table) vs calibrated decode error count.
  const auto count_errors = [&](const dsp::RVec& stream) {
    const auto rx = node.receive_downlink(stream, pkt);
    if (!rx.decode.locked) return packet.framed_bits().size();
    std::size_t errors = 0;
    const auto& sent = packet.framed_bits();
    for (std::size_t i = 0; i < sent.size(); ++i)
      if (i >= rx.decode.bits.size() || rx.decode.bits[i] != sent[i]) ++errors;
    return errors;
  };

  const auto before = count_errors(send());
  node.calibrate(1e-4);
  node.frontend().auto_gain(paths);
  const auto after = count_errors(send());
  EXPECT_LT(after, before);
  EXPECT_EQ(after, 0u);
}

/// FNV-1a over the little-endian bytes of each value's bit pattern.
std::uint64_t bit_hash(std::span<const double> values) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const double v : values) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xFFu;
      h *= 0x100000001B3ull;
    }
  }
  return h;
}

std::string bit_string(const phy::Bits& bits) {
  std::string s;
  for (const int b : bits) s.push_back(b ? '1' : '0');
  return s;
}

/// What one decode returned, bit for bit.
struct DecodePin {
  std::uint64_t period_bits = 0;
  std::size_t header_run = 0;
  std::size_t sync_run = 0;
  std::vector<std::size_t> payload_slots;
  std::uint64_t confidences_hash = 0;
  std::string bits;
};

void expect_pinned(const DownlinkDecodeResult& r, const DecodePin& pin) {
  const std::uint64_t period = std::bit_cast<std::uint64_t>(r.estimated_period_s);
  EXPECT_EQ(period, pin.period_bits) << std::hex << period;
  EXPECT_EQ(r.header_run, pin.header_run);
  EXPECT_EQ(r.sync_run, pin.sync_run);
  EXPECT_EQ(r.payload_slots, pin.payload_slots);
  const std::uint64_t confidences = bit_hash(r.confidences);
  EXPECT_EQ(confidences, pin.confidences_hash) << std::hex << confidences;
  EXPECT_EQ(bit_string(r.bits), pin.bits);
}

/// The frame MaskSkipsReflectiveChirpsInIntegratedMode builds: the preamble
/// on every chirp, then each payload symbol on an absorptive chirp followed
/// by a reflective filler copy. @p absorptive receives the tag's mask.
dsp::RVec receive_interleaved(Link& link, const phy::DownlinkPacket& packet,
                              std::vector<bool>& absorptive) {
  const auto slots = packet.to_slots(link.alphabet);
  const std::size_t preamble =
      packet.config().header_chirps + packet.config().sync_chirps;
  std::vector<rf::ChirpParams> chirps;
  absorptive.clear();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    chirps.push_back(link.alphabet.chirp(slots[i]));
    absorptive.push_back(true);
    if (i < preamble) continue;
    chirps.push_back(link.alphabet.chirp(slots[i]));
    absorptive.push_back(false);
  }
  std::unique_ptr<bool[]> flags(new bool[chirps.size()]);
  for (std::size_t i = 0; i < chirps.size(); ++i) flags[i] = absorptive[i];
  return link.node.frontend().receive_frame(
      chirps, link.paths, std::span<const bool>(flags.get(), chirps.size()));
}

/// Restores the process-wide kernel target after a test that switches it.
class TagDecoderGolden : public ::testing::Test {
 protected:
  void TearDown() override { dsp::kernels::set_target(saved_); }
  dsp::kernels::SimdTarget saved_ = dsp::kernels::active_target();
};

TEST_F(TagDecoderGolden, CalibrationAndDecodesArePinned) {
  // Absolute outputs of the tag's downlink path on every kernel target: the
  // calibrated table of a 5-bit and a 3-bit alphabet, then one sequential
  // packet and one whose payload chirps alternate with reflective filler.
  // Every other decoder test checks only that the payload comes back, so a
  // change that moves a confidence or the period estimate passes them. The
  // values were recorded while the tag still copied its alphabet and
  // preamble settings into a decoder config; reading them from their owners
  // is an exact rewrite. A value here moves only with a deliberate output
  // change, recorded as such.
  struct Case {
    std::size_t bits_per_symbol;
    std::uint64_t beat_freqs_hash;
    std::uint64_t phases_hash;
    DecodePin sequential;
    DecodePin interleaved;
  };
  const Case cases[] = {
      {5,
       0xd4753db6837cc7f6ull,
       0x7e0bdff905dc0d4dull,
       {0x3f1f72e7f3a53491ull, 8, 3, {3, 3, 27, 11, 30, 34, 27, 24, 31, 21},
        0x75cd694fc18cd31aull,
        "00000000001000001111100101010110000110011011111100"},
       {0x3f1f72bf600d0b23ull, 8, 3, {3, 3, 12, 7, 7, 5, 25, 30, 3},
        0x0748281436972d96ull,
        "000000000001110001110011100011110111001000000"}},
      {3,
       0xc5df9e64b2118ac1ull,
       0x2fcc55c866b27847ull,
       {0x3f1f73935411d046ull, 8, 3,
        {3, 3, 3, 6, 3, 5, 7, 4, 6, 10, 9, 4, 9, 8, 7, 7},
        0xf22238e1c07ce559ull,
        "000000000010000011111001010101100001100110111111"},
       {0x3f1f7432c2815c9bull, 8, 3,
        {3, 3, 3, 4, 8, 4, 8, 5, 9, 5, 8, 7, 4, 3, 3},
        0xba658d356a028431ull,
        "000000000001110001110011100011110111001000000"}},
  };
  std::vector<dsp::kernels::SimdTarget> targets;
  for (const auto t : {dsp::kernels::SimdTarget::kScalar,
                       dsp::kernels::SimdTarget::kSse2,
                       dsp::kernels::SimdTarget::kAvx2})
    if (dsp::kernels::target_available(t)) targets.push_back(t);

  for (const auto target : targets) {
    ASSERT_TRUE(dsp::kernels::set_target(target));
    SCOPED_TRACE(dsp::kernels::target_name(target));
    for (const Case& c : cases) {
      SCOPED_TRACE(c.bits_per_symbol);
      Link link(c.bits_per_symbol);
      const auto& table = link.node.calibration();
      const std::uint64_t freqs = bit_hash(table.slot_beat_freqs_hz);
      EXPECT_EQ(freqs, c.beat_freqs_hash) << std::hex << freqs;
      const std::uint64_t phases = bit_hash(table.slot_phases_rad);
      EXPECT_EQ(phases, c.phases_hash) << std::hex << phases;

      Rng rng(21);
      const phy::PacketConfig pkt;
      const phy::DownlinkPacket sequential(pkt, rng.bits(24));
      expect_pinned(link.node.receive_downlink(link.transmit(sequential), pkt).decode,
                    c.sequential);
      const phy::DownlinkPacket interleaved(pkt, rng.bits(20));
      std::vector<bool> absorptive;
      const auto stream = receive_interleaved(link, interleaved, absorptive);
      expect_pinned(link.node.receive_downlink(stream, pkt, absorptive).decode,
                    c.interleaved);
    }
  }
}

}  // namespace
}  // namespace bis::tag
