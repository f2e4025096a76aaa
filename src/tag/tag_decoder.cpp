#include "tag/tag_decoder.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phy/slope_alphabet.hpp"

namespace bis::tag {
namespace {

SymbolDemodConfig make_demod_config(const TagDecoderConfig& cfg) {
  SymbolDemodConfig d;
  d.sample_rate_hz = cfg.sample_rate_hz;
  d.slot_beat_freqs_hz = cfg.slot_beat_freqs_hz;
  d.slot_durations_s = cfg.slot_durations_s;
  d.slot_phases_rad = cfg.slot_phases_rad;
  return d;
}

}  // namespace

TagDecoder::TagDecoder(const TagDecoderConfig& config)
    : config_(config),
      periodic_gate_(config.periodic_gate),
      period_(config.period),
      demod_(make_demod_config(config)) {
  BIS_CHECK(config_.slot_beat_freqs_hz.size() >= 4);
  BIS_CHECK(config_.slot_durations_s.size() == config_.slot_beat_freqs_hz.size());
  BIS_CHECK(config_.header_slot < config_.slot_beat_freqs_hz.size());
  BIS_CHECK(config_.sync_slot < config_.slot_beat_freqs_hz.size());
  BIS_CHECK(config_.header_slot != config_.sync_slot);
  BIS_CHECK(config_.min_header_run >= 1);
  BIS_CHECK(config_.bits_per_symbol >= 1);
  static obs::Counter& builds =
      obs::Registry::instance().counter("bis.tag.decoder_builds");
  builds.add();
}

DownlinkDecodeResult TagDecoder::decode_stream(
    const dsp::RVec& stream, const std::vector<bool>& absorptive_mask) const {
  BIS_TRACE_SPAN("tag.decode_stream");
  static obs::Counter& sync_attempts =
      obs::Registry::instance().counter("bis.tag.sync_attempts");
  sync_attempts.add();
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
  const double min_duration = *std::min_element(
      config_.slot_durations_s.begin(), config_.slot_durations_s.end());
  const double max_duration = *std::max_element(
      config_.slot_durations_s.begin(), config_.slot_durations_s.end());
  const std::size_t min_len =
      SymbolDemod::analysis_length(min_duration, config_.sample_rate_hz);
  const std::size_t max_len =
      SymbolDemod::analysis_length(max_duration, config_.sample_rate_hz);

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
          SymbolDemod::analysis_length(config_.slot_durations_s[r.slot],
                                       config_.sample_rate_hz),
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
  const std::size_t guard = config_.preamble_guard_slots;
  const auto is_sync = [&](std::size_t slot) {
    return slot != kErasure && slot != kSkipped && slot <= config_.sync_slot + guard;
  };
  const auto is_header = [&](std::size_t slot) {
    return slot != kErasure && slot != kSkipped && slot + guard >= config_.header_slot;
  };

  // Anchor: score every candidate frame start against the full preamble
  // template — headerish hits inside the header field plus syncish hits
  // inside the sync field, minus penalties for preamble slopes appearing
  // where data should start. A single garbled preamble chirp then cannot
  // shift the payload boundary (which would scramble the whole packet).
  const std::size_t h_len = config_.expected_header_chirps;
  const std::size_t s_len = config_.expected_sync_chirps;
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
    if (header_hits >= config_.min_header_run && score > best_score) {
      best_score = score;
      anchor = a;
    }
  }
  if (anchor == slots.size()) return result;

  const std::size_t header_end =
      std::min(anchor + config_.expected_header_chirps, slots.size());
  const std::size_t payload_start = std::min(
      anchor + config_.expected_header_chirps + config_.expected_sync_chirps,
      slots.size());
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
      result.payload_slots.push_back(config_.first_data_slot);
      result.confidences.push_back(0.0);
      continue;
    }
    result.payload_slots.push_back(slots[k]);
    result.confidences.push_back(confidences[k]);
  }

  result.header_run = header_run;
  result.sync_run = sync_run;
  result.locked =
      header_run >= config_.min_header_run && !result.payload_slots.empty();
  static obs::Counter& sync_locks =
      obs::Registry::instance().counter("bis.tag.sync_locks");
  if (result.locked) sync_locks.add();
  if (!result.locked) return result;

  // Slots → data symbols → bits. A payload burst that classified as a
  // reserved preamble or guard slot is clamped to the nearest data slot
  // (the bit errors it causes are counted by the caller).
  std::vector<std::size_t> symbols;
  symbols.reserve(result.payload_slots.size());
  const std::size_t n_data =
      static_cast<std::size_t>(1) << config_.bits_per_symbol;
  const std::size_t lo = config_.first_data_slot;
  const std::size_t hi = lo + n_data - 1;
  for (auto slot : result.payload_slots) {
    const std::size_t clamped = std::clamp(slot, lo, hi);
    const std::size_t index = clamped - lo;
    symbols.push_back(config_.gray_coding ? phy::gray_decode(index) : index);
  }
  result.bits = phy::symbols_to_bits(symbols, config_.bits_per_symbol);
  return result;
}

}  // namespace bis::tag
