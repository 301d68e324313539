/**
 * @file
 * Arrival processes: when open-loop accesses are offered.
 *
 * The paper's open-loop extension offers fixed-rate Poisson traffic;
 * production traffic breathes (diurnal load curves) and spikes
 * (correlated bursts). The sampler hands the open-loop client its
 * next inter-arrival gap:
 *
 *  - Poisson: exponential gaps at the base rate. Consumes exactly
 *    one Rng draw per arrival and reproduces the pre-traffic
 *    client's draw sequence bit-for-bit, so existing benches and
 *    goldens are unchanged by default.
 *  - Diurnal: a piecewise-constant rate schedule -- per-phase
 *    multipliers on the base rate, each lasting `phase_ms`, cycled
 *    forever. Sampled exactly (inversion of the inhomogeneous
 *    Poisson integral), one draw per arrival.
 *  - MMPP: a 2-state Markov-modulated Poisson process. The process
 *    sits in a calm state at the base rate and a burst state at
 *    `burst_mult` times the base rate; state residencies are
 *    exponential with means `calm_ms` / `burst_ms`. The classic
 *    minimal model of bursty, correlated arrivals.
 *
 * All samplers are deterministic per seed: every random quantity
 * comes from the caller's Rng in a schedule-independent order.
 */

#ifndef PDDL_TRAFFIC_ARRIVAL_HH
#define PDDL_TRAFFIC_ARRIVAL_HH

#include <string>
#include <vector>

#include "util/rng.hh"

namespace pddl {
namespace traffic {

/**
 * Shortest diurnal phase_ms and MMPP calm_ms/burst_ms the parser
 * accepts (1 us). The samplers step through every phase or regime
 * switch between two arrivals, so a span too short to move the
 * simulated clock would stall them.
 */
constexpr double kMinArrivalSpanMs = 1e-3;

/** Which arrival process offers the load. */
struct ArrivalSpec
{
    enum class Kind
    {
        Poisson,
        Diurnal,
        Mmpp
    };

    Kind kind = Kind::Poisson;

    /**
     * Diurnal: multipliers on the base rate, one per phase, cycled.
     * At least one multiplier must be positive.
     */
    std::vector<double> phase_mult;
    /** Diurnal: duration of each phase in ms. */
    double phase_ms = 1000.0;

    /** MMPP: burst-state rate = base rate x burst_mult (> 0). */
    double burst_mult = 8.0;
    /** MMPP: mean residency of the calm state in ms. */
    double calm_ms = 2000.0;
    /** MMPP: mean residency of the burst state in ms. */
    double burst_ms = 400.0;
};

/**
 * Canonical spec string carrying the parameters, the form
 * ScenarioSpec serializes: "poisson",
 * "diurnal:<m1>,<m2>,...@<phase_ms>" or
 * "mmpp:<burst_mult>,<calm_ms>,<burst_ms>".
 * parseArrivalSpec(arrivalSpecString(s)) reproduces `s`.
 */
std::string arrivalSpecString(const ArrivalSpec &spec);

/**
 * Parse a spec string (the grammar of arrivalSpecString; a bare
 * "diurnal" or "mmpp" selects the struct defaults). @return true on
 * success; on failure `error` explains what was malformed (suitable
 * for an ArgParser validator message).
 */
bool parseArrivalSpec(const std::string &text, ArrivalSpec &spec,
                      std::string &error);

/**
 * Stateful gap sampler. `base_per_s` is the long-run offered rate
 * knob every process modulates (the diurnal and MMPP averages differ
 * from it by their duty cycles).
 */
class ArrivalSampler
{
  public:
    ArrivalSampler(const ArrivalSpec &spec, double base_per_s);

    /**
     * Milliseconds from `now` to the next arrival. `now` must not
     * decrease across calls (simulated time never does).
     */
    double nextGapMs(Rng &rng, double now);

  private:
    /** Arrivals per ms in diurnal phase `phase` (a whole number). */
    double diurnalRateAt(double phase) const;

    ArrivalSpec spec_;
    double base_per_ms_;

    /** MMPP state: current regime and its pre-drawn end time. */
    bool burst_ = false;
    double switch_at_ = -1.0;
};

} // namespace traffic
} // namespace pddl

#endif // PDDL_TRAFFIC_ARRIVAL_HH
