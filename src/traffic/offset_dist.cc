#include "traffic/offset_dist.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <mutex>
#include <vector>

#include "util/modmath.hh"
#include "util/spec_text.hh"

namespace pddl {
namespace traffic {

namespace {

/**
 * Rank -> unit scramble seed. Fixed, not per-workload: two clients
 * with the same spec share one hot set, the way real tenants share
 * hot objects.
 */
constexpr uint64_t kScrambleSeed = 0x7ea75c4a1b0ffeedULL;

/** Zeta term i, 1 / i^theta, as the reference loop computes it. */
double
zetaTerm(int64_t i, double theta)
{
    return 1.0 / std::pow(static_cast<double>(i), theta);
}

/** Terms below this index are added by the plain loop. */
constexpr int64_t kZetaDirectTerms = int64_t{1} << 16;
/** Terms per block that one reference term anchors. */
constexpr int kZetaBlock = 32;

/**
 * `sum` plus zeta terms first..last, rounded exactly as adding the
 * reference terms one at a time in order rounds it. `sum` must be
 * the running sum of terms 1..first-1.
 *
 * Below kZetaDirectTerms that is the reference loop. Past it, each
 * block's first term i0 is the reference term, and term i0 + j is
 * that anchor times the degree-5 Taylor polynomial of
 * (1 + j / i0)^-theta, within 2^-40 of the reference term relative
 * to it (DESIGN §11). addCertified adds such a term only where every
 * value that close gives the same rounded sum, so the reference
 * term would too; elsewhere the reference term is computed and added.
 * The estimates go through `terms` so that no product of them can be
 * contracted into the sum.
 */
double
addZetaTerms(double sum, int64_t first, int64_t last, double theta)
{
    int64_t i = first;
    for (; i <= last && i < kZetaDirectTerms; ++i)
        sum += zetaTerm(i, theta);
    // c[k] = binomial(-theta, k), the Taylor coefficients.
    double c[6] = {1.0};
    for (int k = 1; k < 6; ++k)
        c[k] = c[k - 1] * (-theta - (k - 1)) / k;
    double terms[kZetaBlock] = {};
    while (i <= last) {
        const int count =
            static_cast<int>(std::min<int64_t>(kZetaBlock, last - i + 1));
        const double anchor = zetaTerm(i, theta);
        const double step = 1.0 / static_cast<double>(i);
        for (int j = 1; j < count; ++j) {
            const double x = j * step;
            double poly = c[5];
            for (int k = 4; k >= 0; --k)
                poly = c[k] + x * poly;
            terms[j] = anchor * poly;
        }
        sum += anchor;
        for (int j = 1; j < count; ++j) {
            if (!addCertified(sum, terms[j], terms[j] * 0x1p-40))
                sum += zetaTerm(i + j, theta);
        }
        i += count;
    }
    return sum;
}

/** Terms between two memo checkpoints. */
constexpr int64_t kZetaStride = 4096;
/** Distinct thetas memoized; further thetas are summed directly. */
constexpr size_t kZetaMemoThetas = 16;

/**
 * Checkpointed partial sums of the zeta series for one theta:
 * `sums[k]` is the running sum after k * kZetaStride terms, exactly
 * as the reference loop holds it at that index.
 */
struct ZetaPrefixes
{
    double theta;
    std::vector<double> sums;
};

struct ZetaMemo
{
    std::mutex mutex;
    std::vector<ZetaPrefixes> entries;
};

ZetaMemo &
zetaMemo()
{
    static ZetaMemo memo;
    return memo;
}

} // namespace

double
zipfZetaReference(int64_t n, double theta)
{
    double sum = 0.0;
    for (int64_t i = 1; i <= n; ++i)
        sum += zetaTerm(i, theta);
    return sum;
}

double
zipfZeta(int64_t n, double theta)
{
    const int64_t blocks = n / kZetaStride;
    // The running sum after `done` terms, taken from the memo.
    double prefix = 0.0;
    int64_t done = 0;
    {
        ZetaMemo &memo = zetaMemo();
        const std::lock_guard<std::mutex> lock(memo.mutex);
        ZetaPrefixes *entry = nullptr;
        for (ZetaPrefixes &candidate : memo.entries) {
            if (candidate.theta == theta)
                entry = &candidate;
        }
        if (entry == nullptr && memo.entries.size() < kZetaMemoThetas) {
            memo.entries.push_back({theta, {0.0}});
            entry = &memo.entries.back();
        }
        if (entry != nullptr) {
            std::vector<double> &sums = entry->sums;
            const size_t needed = static_cast<size_t>(blocks) + 1;
            // Room for a domain four times larger, so a tuner that
            // halves the stripe unit or drops parity extends the
            // checkpoints without another allocation.
            if (sums.capacity() < needed)
                sums.reserve(4 * needed);
            while (sums.size() < needed) {
                const int64_t from =
                    static_cast<int64_t>(sums.size() - 1) * kZetaStride;
                sums.push_back(addZetaTerms(sums.back(), from + 1,
                                            from + kZetaStride, theta));
            }
            prefix = sums[static_cast<size_t>(blocks)];
            done = blocks * kZetaStride;
        }
    }
    return addZetaTerms(prefix, done + 1, n, theta);
}

bool
parseOffsetSpec(const std::string &text, OffsetSpec &spec,
                std::string &error)
{
    const std::string_view view = text;
    if (view == "uniform") {
        spec = OffsetSpec{};
        return true;
    }
    if (view.starts_with("zipf:")) {
        double theta = 0.0;
        if (!spec_text::parseReal(view.substr(5), theta) ||
            theta <= 0.0 || theta >= 1.0) {
            error = "expected zipf:<theta> with theta in (0,1)";
            return false;
        }
        spec = OffsetSpec{};
        spec.kind = OffsetSpec::Kind::Zipf;
        spec.theta = theta;
        return true;
    }
    if (view.starts_with("hot:")) {
        const std::string_view rest = view.substr(4);
        const size_t comma = rest.find(',');
        double fraction = 0.0;
        double weight = 0.0;
        if (comma == std::string_view::npos ||
            !spec_text::parseReal(rest.substr(0, comma), fraction) ||
            !spec_text::parseReal(rest.substr(comma + 1), weight) ||
            fraction <= 0.0 || fraction >= 1.0 || weight <= 0.0 ||
            weight > 1.0) {
            error = "expected hot:<fraction>,<weight> with fraction "
                    "in (0,1) and weight in (0,1]";
            return false;
        }
        spec = OffsetSpec{};
        spec.kind = OffsetSpec::Kind::HotSpot;
        spec.hot_fraction = fraction;
        spec.hot_weight = weight;
        return true;
    }
    error = "expected uniform, zipf:<theta> or "
            "hot:<fraction>,<weight>";
    return false;
}

std::string
offsetSpecName(const OffsetSpec &spec)
{
    switch (spec.kind) {
    case OffsetSpec::Kind::Uniform:
        return "uniform";
    case OffsetSpec::Kind::Zipf:
        return "zipf:" + spec_text::numStr(spec.theta);
    case OffsetSpec::Kind::HotSpot:
        return "hot:" + spec_text::numStr(spec.hot_fraction) + "," +
               spec_text::numStr(spec.hot_weight);
    }
    return "uniform";
}

OffsetSampler::OffsetSampler(const OffsetSpec &spec,
                             int64_t domain_units)
    : spec_(spec), domain_(domain_units)
{
    assert(domain_ >= 1);
    if (spec_.kind != OffsetSpec::Kind::Zipf)
        return;
    assert(spec_.theta > 0.0 && spec_.theta < 1.0);
    // Gray et al. "Quickly generating billion-record synthetic
    // databases" (the YCSB ZipfianGenerator): one harmonic precompute
    // (memoized across samplers), then one uniform draw per sample.
    const double theta = spec_.theta;
    const double n = static_cast<double>(domain_);
    zeta_n_ = zipfZeta(domain_, theta);
    alpha_ = 1.0 / (1.0 - theta);
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) /
           (1.0 - zeta2 / zeta_n_);
    half_pow_theta_ = std::pow(0.5, theta);
}

int64_t
OffsetSampler::zipfRank(Rng &rng) const
{
    const double u = rng.uniform();
    const double uz = u * zeta_n_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + half_pow_theta_)
        return 1;
    int64_t rank = static_cast<int64_t>(
        static_cast<double>(domain_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= domain_)
        rank = domain_ - 1;
    return rank;
}

int64_t
OffsetSampler::sample(Rng &rng, int64_t span) const
{
    assert(span >= 0 && span < domain_ + 1);
    switch (spec_.kind) {
    case OffsetSpec::Kind::Uniform:
        return static_cast<int64_t>(
            rng.below(static_cast<uint64_t>(span + 1)));
    case OffsetSpec::Kind::Zipf: {
        // Popularity lives on ranks; the stateless scramble spreads
        // hot ranks over the whole domain (and therefore over a
        // volume's shards). Clamp to the valid start span -- the few
        // units past it land on the edge.
        const int64_t rank = zipfRank(rng);
        const int64_t unit = static_cast<int64_t>(
            hashMix64(static_cast<uint64_t>(rank), kScrambleSeed) %
            static_cast<uint64_t>(domain_));
        return unit < span ? unit : span;
    }
    case OffsetSpec::Kind::HotSpot: {
        int64_t hot_units = static_cast<int64_t>(
            spec_.hot_fraction * static_cast<double>(domain_));
        if (hot_units < 1)
            hot_units = 1;
        if (hot_units > domain_)
            hot_units = domain_;
        int64_t unit;
        if (rng.uniform() < spec_.hot_weight) {
            unit = static_cast<int64_t>(
                rng.below(static_cast<uint64_t>(hot_units)));
        } else if (hot_units < domain_) {
            unit = hot_units +
                   static_cast<int64_t>(rng.below(
                       static_cast<uint64_t>(domain_ - hot_units)));
        } else {
            unit = static_cast<int64_t>(
                rng.below(static_cast<uint64_t>(domain_)));
        }
        return unit < span ? unit : span;
    }
    }
    return 0;
}

} // namespace traffic
} // namespace pddl
