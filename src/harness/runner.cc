#include "harness/runner.hh"

#include <chrono>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "harness/parallel_for.hh"
#include "util/rng.hh"

namespace pddl {
namespace harness {

const char *
accessTypeName(AccessType type)
{
    return type == AccessType::Read ? "read" : "write";
}

uint64_t
deriveSeed(const GridPoint &point)
{
    // Canonical rendering: every identity field, '|'-separated, in a
    // fixed order. Changing any field changes the seed; nothing else
    // (thread count, submission order, wall clock) can.
    std::string canon = point.figure;
    canon += '|';
    canon += point.layout;
    canon += '|';
    canon += std::to_string(point.size_kb);
    canon += '|';
    canon += std::to_string(point.clients);
    canon += '|';
    canon += accessTypeName(point.type);
    canon += '|';
    canon += arrayModeName(point.mode);

    // FNV-1a 64, then one SplitMix64 finalization for diffusion.
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : canon) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    uint64_t state = hash;
    return splitMix64(state);
}

ExperimentRunner::ExperimentRunner(int threads)
    : threads_(threads >= 1 ? threads : defaultThreads())
{
}

RunSummary
ExperimentRunner::run(const std::vector<Experiment> &experiments) const
{
    using Clock = std::chrono::steady_clock;
    const auto wall_start = Clock::now();

    RunSummary summary;
    summary.threads = threads_;
    summary.points.resize(experiments.size());

    auto runPoint = [&](size_t i) {
        const Experiment &experiment = experiments[i];
        PointResult &out = summary.points[i];
        out.point = experiment.point;
        out.seed = deriveSeed(experiment.point);
        const auto point_start = Clock::now();
        // One registry per point, written by the one thread that
        // runs it, so its snapshot cannot depend on thread
        // interleaving. The tracer (if any) observes only point 0 so
        // the trace is one deterministic simulation.
        obs::MetricsRegistry registry;
        obs::Probe probe;
        if (metrics_enabled_ || (tracer_ != nullptr && i == 0)) {
            probe = obs::Probe(metrics_enabled_ ? &registry : nullptr,
                               i == 0 ? tracer_ : nullptr);
        }
        out.result = experiment.run(out.seed, probe, out.extras);
        if (metrics_enabled_)
            out.metrics = registry.snapshot();
        out.wall_ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      point_start)
                .count();
    };

    parallelFor(threads_, experiments.size(), runPoint);

    for (const PointResult &point : summary.points) {
        ++summary.point_count;
        summary.sample_count += point.result.samples;
        summary.point_wall_ms.add(point.wall_ms);
    }
    summary.wall_s =
        std::chrono::duration<double>(Clock::now() - wall_start)
            .count();
    return summary;
}

std::string
figureSlug(const std::string &figure)
{
    std::string slug;
    bool last_sep = true;
    for (char c : figure) {
        if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
            slug += c;
            last_sep = false;
        } else if (c >= 'A' && c <= 'Z') {
            slug += static_cast<char>(c - 'A' + 'a');
            last_sep = false;
        } else if (!last_sep) {
            slug += '_';
            last_sep = true;
        }
    }
    while (!slug.empty() && slug.back() == '_')
        slug.pop_back();
    return slug.empty() ? "unnamed" : slug;
}

Json
figureJson(const std::string &figure, const std::string &caption,
           const RunSummary &summary)
{
    Json rows = Json::array();
    for (const PointResult &point : summary.points) {
        Json row = Json::object();
        row.set("layout", point.point.layout)
            .set("size_kb", point.point.size_kb)
            .set("clients", point.point.clients)
            .set("access", accessTypeName(point.point.type))
            .set("mode", arrayModeName(point.point.mode))
            .set("seed", point.seed)
            .set("mean_response_ms", point.result.mean_response_ms)
            .set("ci_half_width_ms", point.result.ci_half_width_ms)
            .set("throughput_per_s", point.result.throughput_per_s)
            .set("samples", point.result.samples)
            .set("wall_ms", point.wall_ms);
        Json seeks = Json::object();
        seeks.set("non_local", point.result.non_local_seeks)
            .set("cylinder_switch", point.result.cylinder_switches)
            .set("track_switch", point.result.track_switches)
            .set("no_switch", point.result.no_switches);
        row.set("seeks", std::move(seeks));
        if (!point.extras.empty()) {
            Json extras = Json::object();
            for (const auto &extra : point.extras)
                extras.set(extra.first, extra.second);
            row.set("extras", std::move(extras));
        }
        if (!point.metrics.empty())
            row.set("metrics", point.metrics.toJson());
        rows.push(std::move(row));
    }

    Json totals = Json::object();
    if (summary.point_count > 0) {
        totals.set("points", summary.point_count)
            .set("samples", summary.sample_count);
    }

    Json doc = Json::object();
    doc.set("schema", "pddl-bench-v1")
        .set("figure", figure)
        .set("caption", caption)
        .set("threads", summary.threads)
        .set("wall_time_s", summary.wall_s)
        .set("totals", std::move(totals))
        .set("rows", std::move(rows));
    return doc;
}

std::string
writeFigureJson(const std::string &dir, const std::string &figure,
                const std::string &caption, const RunSummary &summary)
{
    std::string path = dir;
    if (!path.empty() && path.back() != '/')
        path += '/';
    path += "BENCH_" + figureSlug(figure) + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << figureJson(figure, caption, summary).dump();
    return path;
}

} // namespace harness
} // namespace pddl
