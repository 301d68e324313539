#include "traffic/arrival.hh"

#include <cassert>
#include <cmath>
#include <cstdio>

#include "util/modmath.hh"
#include "util/spec_text.hh"

namespace pddl {
namespace traffic {

std::string
arrivalSpecString(const ArrivalSpec &spec)
{
    char buffer[96];
    switch (spec.kind) {
    case ArrivalSpec::Kind::Poisson:
        return "poisson";
    case ArrivalSpec::Kind::Diurnal: {
        std::string out = "diurnal:";
        for (size_t i = 0; i < spec.phase_mult.size(); ++i) {
            if (i > 0)
                out += ',';
            std::snprintf(buffer, sizeof(buffer), "%.17g",
                          spec.phase_mult[i]);
            out += buffer;
        }
        std::snprintf(buffer, sizeof(buffer), "@%.17g", spec.phase_ms);
        out += buffer;
        return out;
    }
    case ArrivalSpec::Kind::Mmpp:
        std::snprintf(buffer, sizeof(buffer),
                      "mmpp:%.17g,%.17g,%.17g", spec.burst_mult,
                      spec.calm_ms, spec.burst_ms);
        return buffer;
    }
    return "poisson";
}

bool
parseArrivalSpec(const std::string &text, ArrivalSpec &spec,
                 std::string &error)
{
    if (text == "poisson") {
        spec = ArrivalSpec{};
        return true;
    }
    if (text == "diurnal") {
        spec = ArrivalSpec{};
        spec.kind = ArrivalSpec::Kind::Diurnal;
        spec.phase_mult = {0.25, 1.0, 2.5, 1.0};
        return true;
    }
    const std::string_view view = text;
    if (view.starts_with("diurnal:")) {
        const std::string_view rest = view.substr(8);
        const size_t at = rest.find('@');
        std::vector<double> mults;
        double phase_ms = 0.0;
        if (at == std::string_view::npos ||
            !spec_text::parseRealList(rest.substr(0, at), mults) ||
            !spec_text::parseReal(rest.substr(at + 1), phase_ms)) {
            error = "expected diurnal:<m1>,<m2>,...@<phase_ms>";
            return false;
        }
        if (!(phase_ms >= kMinArrivalSpanMs)) {
            error = "diurnal phase_ms must be >= 0.001 (1 us)";
            return false;
        }
        double total = 0.0;
        for (double m : mults) {
            if (m < 0.0) {
                error = "diurnal phase multipliers must be >= 0";
                return false;
            }
            total += m;
        }
        if (total <= 0.0) {
            error = "diurnal schedule must offer load (some "
                    "multiplier > 0)";
            return false;
        }
        spec = ArrivalSpec{};
        spec.kind = ArrivalSpec::Kind::Diurnal;
        spec.phase_mult = std::move(mults);
        spec.phase_ms = phase_ms;
        return true;
    }
    if (text == "mmpp") {
        spec = ArrivalSpec{};
        spec.kind = ArrivalSpec::Kind::Mmpp;
        return true;
    }
    if (view.starts_with("mmpp:")) {
        std::vector<double> v;
        if (!spec_text::parseRealList(view.substr(5), v) ||
            v.size() != 3 ||
            v[0] <= 0.0) {
            error = "expected mmpp:<burst_mult>,<calm_ms>,<burst_ms> "
                    "with burst_mult > 0";
            return false;
        }
        if (!(v[1] >= kMinArrivalSpanMs)) {
            error = "mmpp calm_ms must be >= 0.001 (1 us)";
            return false;
        }
        if (!(v[2] >= kMinArrivalSpanMs)) {
            error = "mmpp burst_ms must be >= 0.001 (1 us)";
            return false;
        }
        spec = ArrivalSpec{};
        spec.kind = ArrivalSpec::Kind::Mmpp;
        spec.burst_mult = v[0];
        spec.calm_ms = v[1];
        spec.burst_ms = v[2];
        return true;
    }
    error = "expected poisson, diurnal:<mults>@<phase_ms> or "
            "mmpp:<burst>,<calm_ms>,<burst_ms>";
    return false;
}

ArrivalSampler::ArrivalSampler(const ArrivalSpec &spec,
                               double base_per_s)
    : spec_(spec), base_per_ms_(base_per_s / 1000.0)
{
    assert(base_per_ms_ > 0.0);
    if (spec_.kind == ArrivalSpec::Kind::Diurnal) {
        assert(spec_.phase_ms >= kMinArrivalSpanMs &&
               !spec_.phase_mult.empty());
        double total = 0.0;
        for (double mult : spec_.phase_mult) {
            assert(mult >= 0.0);
            total += mult;
        }
        assert(total > 0.0 && "diurnal schedule must offer load");
    }
    if (spec_.kind == ArrivalSpec::Kind::Mmpp) {
        assert(spec_.burst_mult > 0.0 &&
               spec_.calm_ms >= kMinArrivalSpanMs &&
               spec_.burst_ms >= kMinArrivalSpanMs);
    }
}

double
ArrivalSampler::diurnalRateAt(double phase) const
{
    const double in_period = fmodExact(
        phase, static_cast<double>(spec_.phase_mult.size()));
    return base_per_ms_ *
           spec_.phase_mult[static_cast<size_t>(in_period)];
}

double
ArrivalSampler::nextGapMs(Rng &rng, double now)
{
    switch (spec_.kind) {
    case ArrivalSpec::Kind::Poisson:
        // The pre-traffic client's exact draw: one exponential at
        // the base rate.
        return rng.exponential(1.0 / base_per_ms_);

    case ArrivalSpec::Kind::Diurnal: {
        // Exact inversion of the inhomogeneous Poisson process:
        // draw the unit-exponential target area, then walk the
        // piecewise-constant rate until the integral reaches it.
        // Phase k spans [k * phase_ms, (k + 1) * phase_ms), both
        // products rounded as computed here. The walk steps k itself
        // and never re-derives it from a rounded boundary, where the
        // division can land one phase short and stall the cursor.
        double remaining = rng.exponential(1.0);
        const double phase_ms = spec_.phase_ms;
        double phase = std::floor(now / phase_ms);
        if (phase * phase_ms > now)
            phase -= 1.0;
        else if ((phase + 1.0) * phase_ms <= now)
            phase += 1.0;
        double cursor = now;
        for (;;) {
            const double rate = diurnalRateAt(phase);
            phase += 1.0;
            const double phase_end = phase * phase_ms;
            if (rate > 0.0) {
                const double capacity = rate * (phase_end - cursor);
                if (remaining <= capacity)
                    return cursor + remaining / rate - now;
                remaining -= capacity;
            }
            cursor = phase_end;
        }
    }

    case ArrivalSpec::Kind::Mmpp: {
        // Competing exponentials: an arrival at the current regime's
        // rate races the pre-drawn regime switch; crossing the
        // switch discards the candidate (memorylessness makes the
        // redraw exact) and flips the rate.
        if (switch_at_ < 0.0) {
            burst_ = false;
            switch_at_ = now + rng.exponential(spec_.calm_ms);
        }
        double cursor = now;
        for (;;) {
            const double rate =
                base_per_ms_ * (burst_ ? spec_.burst_mult : 1.0);
            const double candidate =
                cursor + rng.exponential(1.0 / rate);
            if (candidate <= switch_at_)
                return candidate - now;
            cursor = switch_at_;
            burst_ = !burst_;
            switch_at_ =
                cursor + rng.exponential(burst_ ? spec_.burst_ms
                                                : spec_.calm_ms);
        }
    }
    }
    return rng.exponential(1.0 / base_per_ms_);
}

} // namespace traffic
} // namespace pddl
