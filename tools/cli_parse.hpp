#pragma once
// Strict numeric parsing for tool command lines.
//
// The tools used to parse numeric flags with strtoul/stoi, which accept
// trailing junk ("--shards 4x" ran with 4 shards, "--mesh 4x4garbage"
// ran a 4x4 stress mesh) and silently clamp errors to 0. Every numeric
// token now goes through std::from_chars with a full-token check — the
// same policy sim::FaultPlan's parser uses — so a typo is a usage error,
// not a silently different experiment.

#include <charconv>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "sim/kernel.hpp"

namespace daelite::tools {

/// Parse the ENTIRE token as a base-10 integer of type T. Rejects empty
/// tokens, signs on unsigned types, leading/trailing junk ("12x", " 12",
/// "0x12") and out-of-range values. Returns false without touching *out
/// on any failure.
template <typename T>
bool parse_int(std::string_view tok, T* out) {
  static_assert(std::is_integral_v<T>);
  if (tok.empty()) return false;
  T v{};
  const char* const last = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), last, v, 10);
  if (ec != std::errc{} || ptr != last) return false;
  *out = v;
  return true;
}

/// Parse the ENTIRE token as a decimal floating-point value (no hex, no
/// inf/nan — those are never meaningful as rates or bandwidths here).
inline bool parse_double(std::string_view tok, double* out) {
  if (tok.empty()) return false;
  double v = 0.0;
  const char* const last = tok.data() + tok.size();
  const auto [ptr, ec] =
      std::from_chars(tok.data(), last, v, std::chars_format::fixed);
  if (ec != std::errc{} || ptr != last) return false;
  *out = v;
  return true;
}

/// The one dispatch option of daelite_sim and daelite_batch,
/// `--scheduler soa|stride|reference`, mapped onto the RunSpec fields it
/// sets. "soa" (the default) is the stride scheduler with batched SoA slot
/// dispatch; "stride" is the per-component stride dispatch, kept as the
/// cross-check; "reference" is the per-cycle oracle, which never enables
/// SoA. Any other value leaves both outputs untouched and returns false.
inline bool parse_scheduler(std::string_view v, sim::Scheduler* scheduler, bool* soa) {
  if (v == "soa" || v == "stride") {
    *scheduler = sim::Scheduler::kStride;
    *soa = v == "soa";
  } else if (v == "reference") {
    *scheduler = sim::Scheduler::kReference;
    *soa = false;
  } else {
    return false;
  }
  return true;
}

} // namespace daelite::tools
