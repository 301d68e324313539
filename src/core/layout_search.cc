#include "core/layout_search.hh"

#include <stdexcept>
#include <utility>

#include "util/rng.hh"

namespace pddl {

namespace {

/** Stream separator: chain seeds feed both the map and the move
 *  sequence, mixed with distinct constants so they never correlate. */
constexpr uint64_t kMoveStream = 0x6d6f766573ULL; // "moves"

struct ChainState
{
    LayoutSearchChain summary;
    DevelopedRows map;
};

ChainState
runChain(int n, int k, int spares, int rows, int chain,
         const LayoutSearchOptions &opt)
{
    ChainState state;
    state.summary.chain_seed =
        hashMix64(static_cast<uint64_t>(chain), opt.seed);
    ImbalanceEvaluator eval(randomDevelopedRows(
        n, k, spares, rows, state.summary.chain_seed));
    state.summary.initial_cost = eval.cost();
    state.summary.initial_worst1 = eval.metrics(1).worst;

    Rng rng(hashMix64(state.summary.chain_seed, kMoveStream));
    for (int64_t move = 0; move < opt.moves; ++move) {
        const int row = static_cast<int>(
            rng.below(static_cast<uint64_t>(rows)));
        const int a = static_cast<int>(
            rng.below(static_cast<uint64_t>(n)));
        int b = static_cast<int>(
            rng.below(static_cast<uint64_t>(n - 1)));
        if (b >= a)
            ++b;
        const int64_t before = eval.cost();
        eval.applySwap(row, a, b);
        if (eval.cost() <= before)
            ++state.summary.accepted;
        else
            eval.applySwap(row, a, b); // self-inverse: exact revert
    }
    state.summary.final_cost = eval.cost();
    state.summary.final_worst1 = eval.metrics(1).worst;
    state.map = eval.map();
    return state;
}

} // namespace

LayoutSearchResult
searchDevelopedRows(int n, int k, int spares, int rows,
                    const LayoutSearchOptions &opt)
{
    if (opt.chains < 1 || opt.moves < 0)
        throw std::invalid_argument("layout search: bad options");
    std::vector<ChainState> states(
        static_cast<size_t>(opt.chains));
    for (int c = 0; c < opt.chains; ++c)
        states[c] = runChain(n, k, spares, rows, c, opt);

    LayoutSearchResult result;
    int best = 0;
    int best_raw = 0;
    for (int c = 0; c < opt.chains; ++c) {
        const auto &s = states[c].summary;
        const auto &b = states[best].summary;
        if (s.final_worst1 < b.final_worst1 ||
            (s.final_worst1 == b.final_worst1 &&
             s.final_cost < b.final_cost))
            best = c;
        const auto &rb = states[best_raw].summary;
        if (s.initial_worst1 < rb.initial_worst1 ||
            (s.initial_worst1 == rb.initial_worst1 &&
             s.initial_cost < rb.initial_cost))
            best_raw = c;
        result.chains.push_back(s);
    }
    result.best_chain = best;
    result.best = std::move(states[best].map);
    result.best_raw_worst1 = states[best_raw].summary.initial_worst1;
    result.best_raw_cost = states[best_raw].summary.initial_cost;
    return result;
}

} // namespace pddl
