#include "tag/tag_decoder.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bis::tag {
namespace {

/// Header bursts required to lock.
constexpr std::size_t kMinHeaderRun = 3;

PeriodEstimatorConfig period_config(const phy::SlopeAlphabet& alphabet,
                                    double sample_rate_hz) {
  PeriodEstimatorConfig p;
  p.sample_rate_hz = sample_rate_hz;
  p.min_period_s = alphabet.config().chirp_period_s * 0.4;
  p.max_period_s = alphabet.config().chirp_period_s * 2.5;
  return p;
}

SymbolDemodConfig demod_config(const phy::SlopeAlphabet& alphabet,
                               std::span<const double> beat_freqs_hz,
                               double sample_rate_hz) {
  SymbolDemodConfig d;
  d.sample_rate_hz = sample_rate_hz;
  d.slot_beat_freqs_hz.assign(beat_freqs_hz.begin(), beat_freqs_hz.end());
  for (std::size_t slot = 0; slot < alphabet.slot_count(); ++slot)
    d.slot_durations_s.push_back(alphabet.duration(slot));
  // Calibrated phases exist in the table but are NOT used for matching:
  // the gate's integer-sample start jitter de-coheres them at the higher
  // beat frequencies (documented limitation; see EXPERIMENTS.md, Fig. 17).
  return d;
}

}  // namespace

PeriodicGateConfig decoder_gate_config(const phy::SlopeAlphabet& alphabet,
                                       std::span<const double> beat_freqs_hz,
                                       double sample_rate_hz) {
  BIS_CHECK(beat_freqs_hz.size() == alphabet.slot_count());
  PeriodicGateConfig g;
  g.sample_rate_hz = sample_rate_hz;
  // The header slope is the shortest chirp, the sync slope the longest.
  g.min_burst_s = 0.5 * alphabet.duration(alphabet.header_slot());
  // Dip tolerance: the pedestal+tone sum swings to zero every beat-tone
  // trough, so the end-scan must ride across ~0.6 cycles of the lowest tone.
  const double min_beat = *std::min_element(beat_freqs_hz.begin(), beat_freqs_hz.end());
  g.max_dip_s = 0.6 / std::max(min_beat, 1.0);
  // The dip tolerance must never bridge the shortest inter-chirp idle, or
  // the gate would merge consecutive bursts.
  const double min_idle_s =
      alphabet.config().chirp_period_s - alphabet.duration(alphabet.sync_slot());
  g.max_dip_s = std::min(g.max_dip_s, 0.7 * min_idle_s);
  return g;
}

TagDecoder::TagDecoder(const phy::SlopeAlphabet& alphabet,
                       std::span<const double> beat_freqs_hz, double sample_rate_hz)
    : alphabet_(alphabet),
      sample_rate_hz_(sample_rate_hz),
      periodic_gate_(decoder_gate_config(alphabet, beat_freqs_hz, sample_rate_hz)),
      period_(period_config(alphabet, sample_rate_hz)),
      demod_(demod_config(alphabet, beat_freqs_hz, sample_rate_hz)) {
  static obs::Counter& builds =
      obs::Registry::instance().counter("bis.tag.decoder_builds");
  builds.add();
}

DownlinkDecodeResult TagDecoder::decode_stream(
    const dsp::RVec& stream, const phy::PacketConfig& packet,
    const std::vector<bool>& absorptive_mask) const {
  BIS_TRACE_SPAN("tag.decode_stream");
  DownlinkDecodeResult result;

  // Step 1 (paper Fig. 6): chirp period from the long-window analysis of
  // the header field.
  const auto period = period_.estimate(stream);
  if (!period) return result;
  result.estimated_period_s = *period;
  // Step 2: period-folded, chirp-aligned analysis windows (Fig. 6(e)).
  const auto windows = periodic_gate_.slice(stream, *period);
  if (!windows) return result;

  // Step 3: duration-matched two-pass classification (Fig. 6(e) realized
  // without fragile energy-based end detection). Pass 1 sizes the window to
  // the gate's measured burst length, clamped between the protocol's
  // minimum chirp duration (always inside the burst) and its maximum; the
  // hypothesized slot's known duration then sizes the final window,
  // iterating until the decision stabilizes. A period where the tag itself
  // was reflective carries no symbol (skip); an absorptive period with no
  // usable burst is an erasure that must still hold its payload position.
  constexpr std::size_t kErasure = static_cast<std::size_t>(-1);
  // The header slope is the shortest chirp, the sync slope the longest.
  const std::size_t min_len = SymbolDemod::analysis_length(
      alphabet_.duration(alphabet_.header_slot()), sample_rate_hz_);
  const std::size_t max_len = SymbolDemod::analysis_length(
      alphabet_.duration(alphabet_.sync_slot()), sample_rate_hz_);

  // slot value per period index; kSkipped marks a period the tag's own
  // switch made invisible (reflective), kErasure a missed absorptive chirp.
  constexpr std::size_t kSkipped = static_cast<std::size_t>(-2);
  std::vector<std::size_t> slots(windows->size(), kSkipped);
  std::vector<double> confidences(windows->size(), 0.0);
  for (std::size_t k = 0; k < windows->size(); ++k) {
    const auto& w = (*windows)[k];
    if (k < absorptive_mask.size() && !absorptive_mask[k]) continue;
    const bool usable = w.burst_present && w.length >= 4 &&
                        w.start + min_len <= stream.size();
    if (!usable) {
      slots[k] = kErasure;
      continue;
    }
    const std::size_t pass1_len = std::min(
        {std::clamp(w.length, min_len, max_len), stream.size() - w.start});
    auto r = demod_.classify(
        std::span<const double>(stream.data() + w.start, pass1_len));
    // Refine with the hypothesized slot's protocol duration until stable.
    for (int pass = 0; pass < 3; ++pass) {
      const std::size_t len = std::min(
          SymbolDemod::analysis_length(alphabet_.duration(r.slot), sample_rate_hz_),
          stream.size() - w.start);
      const auto refined =
          demod_.classify(std::span<const double>(stream.data() + w.start, len));
      const bool stable = refined.slot == r.slot;
      r = refined;
      if (stable) break;
    }
    slots[k] = r.slot;
    confidences[k] = r.confidence;
  }

  // Step 4: period-indexed framing. Preamble matching tolerates slots inside
  // the guard band around the reserved header/sync slopes. The payload
  // boundary is computed from the period index of the first observed header
  // chirp plus the protocol's fixed preamble length, so missed preamble
  // chirps (reflective slots in integrated mode, noise drops) cannot shift
  // payload alignment. The radar guarantees the frame starts on a chirp the
  // tag absorbs, so the first observed header IS the frame start.
  const std::size_t guard = alphabet_.config().preamble_guard_slots;
  const auto is_sync = [&](std::size_t slot) {
    return slot != kErasure && slot != kSkipped &&
           slot <= alphabet_.sync_slot() + guard;
  };
  const auto is_header = [&](std::size_t slot) {
    return slot != kErasure && slot != kSkipped &&
           slot + guard >= alphabet_.header_slot();
  };

  // Anchor: score every candidate frame start against the full preamble
  // template — headerish hits inside the header field plus syncish hits
  // inside the sync field, minus penalties for preamble slopes appearing
  // where data should start. A single garbled preamble chirp then cannot
  // shift the payload boundary (which would scramble the whole packet).
  const std::size_t h_len = packet.header_chirps;
  const std::size_t s_len = packet.sync_chirps;
  std::size_t anchor = slots.size();
  double best_score = 0.0;
  for (std::size_t a = 0; a + h_len + s_len <= slots.size() + s_len; ++a) {
    double score = 0.0;
    std::size_t header_hits = 0;
    for (std::size_t j = a; j < std::min(a + h_len, slots.size()); ++j) {
      if (is_header(slots[j])) {
        score += 1.0;
        ++header_hits;
      } else if (is_sync(slots[j])) {
        score -= 0.5;  // sync inside the header field: likely misaligned
      }
    }
    for (std::size_t j = std::min(a + h_len, slots.size());
         j < std::min(a + h_len + s_len, slots.size()); ++j) {
      if (is_sync(slots[j]))
        score += 1.0;
      else if (is_header(slots[j]))
        score -= 0.5;
    }
    // The first payload symbol should NOT look like preamble.
    const std::size_t first_payload = a + h_len + s_len;
    if (first_payload < slots.size() &&
        (is_header(slots[first_payload]) || is_sync(slots[first_payload])))
      score -= 0.5;
    if (header_hits >= kMinHeaderRun && score > best_score) {
      best_score = score;
      anchor = a;
    }
  }
  if (anchor == slots.size()) return result;

  const std::size_t header_end = std::min(anchor + h_len, slots.size());
  const std::size_t payload_start = std::min(anchor + h_len + s_len, slots.size());
  std::size_t header_run = 0;
  for (std::size_t k = anchor; k < header_end; ++k)
    if (is_header(slots[k])) ++header_run;
  std::size_t sync_run = 0;
  for (std::size_t k = header_end; k < payload_start; ++k)
    if (is_sync(slots[k])) ++sync_run;

  for (std::size_t k = payload_start; k < slots.size(); ++k) {
    if (slots[k] == kSkipped) continue;  // tag was reflective: no symbol sent
    if (slots[k] == kErasure) {
      // Missed absorptive chirp: placeholder keeps later symbols aligned.
      result.payload_slots.push_back(alphabet_.first_data_slot());
      result.confidences.push_back(0.0);
      continue;
    }
    result.payload_slots.push_back(slots[k]);
    result.confidences.push_back(confidences[k]);
  }

  result.header_run = header_run;
  result.sync_run = sync_run;
  result.locked = header_run >= kMinHeaderRun && !result.payload_slots.empty();
  if (!result.locked) return result;

  // Slots → data symbols → bits. A payload burst that classified as a
  // reserved preamble or guard slot is clamped to the nearest data slot
  // (the bit errors it causes are counted by the caller).
  std::vector<std::size_t> symbols;
  symbols.reserve(result.payload_slots.size());
  const std::size_t lo = alphabet_.first_data_slot();
  const std::size_t hi = lo + alphabet_.data_symbol_count() - 1;
  for (auto slot : result.payload_slots)
    symbols.push_back(alphabet_.data_for_slot(std::clamp(slot, lo, hi)));
  result.bits = phy::symbols_to_bits(symbols, alphabet_.bits_per_symbol());
  return result;
}

}  // namespace bis::tag
