#pragma once
// Strict command-line parsing shared by the tools.
//
// The tools used to parse numeric flags with strtoul/stoi, which accept
// trailing junk ("--watchdog-retries 3x" ran with 3 retries, "--mesh
// 4x4garbage" ran a 4x4 stress mesh) and silently clamp errors to 0.
// Every numeric token now goes through std::from_chars with a full-token
// check — the same policy sim::FaultPlan's parser uses — so a typo is a
// usage error, not a silently different experiment. The RunSpec flags
// daelite_sim and daelite_batch share are parsed once, by
// parse_run_flags(), so the two drivers accept and reject the same values.

#include <algorithm>
#include <charconv>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "sim/kernel.hpp"
#include "soc/runner.hpp"

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

/// What parse_run_flags() made of one command-line argument.
enum class RunFlag {
  kNone,   ///< not a shared RunSpec flag: the tool parses it itself
  kParsed, ///< applied to the RunSpec (and its value consumed)
  kBad,    ///< diagnosed on stderr; the tool exits 2
};

/// Parse argv[*i] if it is one of the RunSpec flags daelite_sim and
/// daelite_batch share: --scheduler, --fault-seed, --fault-rate,
/// --fault-plan, --recover, --preempt, --compact, --watchdog-retries and
/// --watchdog-timeout-mult. A flag's value is consumed (*i is left on it)
/// and applied to *spec, in command-line order, so a flag given after
/// --fault-plan overrides the seed or rate the file sets. A missing or
/// malformed value is reported as "<tool>: <flag> ..." and yields kBad.
inline RunFlag parse_run_flags(std::string_view tool, int argc, char** argv, int* i,
                               soc::RunSpec* spec) {
  const std::string_view flag = argv[*i];
  if (flag == "--recover") {
    spec->recovery.enabled = true;
    return RunFlag::kParsed;
  }
  if (flag == "--preempt") {
    spec->recovery.preempt_best_effort = true;
    return RunFlag::kParsed;
  }
  if (flag == "--compact") {
    spec->recovery.compact_after_recovery = true;
    return RunFlag::kParsed;
  }
  static constexpr std::string_view kValued[] = {
      "--scheduler",        "--fault-seed", "--fault-rate", "--fault-plan",
      "--watchdog-retries", "--watchdog-timeout-mult"};
  if (std::find(std::begin(kValued), std::end(kValued), flag) == std::end(kValued))
    return RunFlag::kNone;
  if (*i + 1 >= argc) {
    std::cerr << tool << ": " << flag << " needs a value\n";
    return RunFlag::kBad;
  }
  const std::string_view v = argv[++*i];
  const auto bad = [&](std::string_view wants) {
    std::cerr << tool << ": " << flag << " wants " << wants << ", got '" << v << "'\n";
    return RunFlag::kBad;
  };
  if (flag == "--scheduler") {
    if (!parse_scheduler(v, &spec->scheduler, &spec->soa))
      return bad("soa, stride or reference");
  } else if (flag == "--fault-seed") {
    if (!parse_int(v, &spec->fault_plan.seed)) return bad("an integer");
  } else if (flag == "--fault-rate") {
    double rate = 0.0;
    if (!parse_double(v, &rate) || rate < 0.0 || rate > 1.0) return bad("a number in [0,1]");
    spec->fault_plan.rate = rate;
  } else if (flag == "--fault-plan") {
    std::string error;
    if (!sim::FaultPlan::parse_file(std::string(v), &spec->fault_plan, &error)) {
      std::cerr << tool << ": " << error << "\n";
      return RunFlag::kBad;
    }
  } else if (flag == "--watchdog-retries") {
    std::uint32_t n = 0;
    if (!parse_int(v, &n)) return bad("an integer >= 0");
    spec->watchdog_retries = n;
  } else { // --watchdog-timeout-mult
    double mult = 0.0;
    if (!parse_double(v, &mult) || mult <= 0.0) return bad("a number > 0");
    spec->watchdog_timeout_mult = mult;
  }
  return RunFlag::kParsed;
}

} // namespace daelite::tools
