#include "figures.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/log.hpp"

namespace dr
{

SweepResult
simulatePoint(const SweepPoint &point)
{
    if (const auto *chip = std::get_if<ChipPoint>(&point))
        return runWorkload(chip->cfg, chip->gpu, chip->cpu);
    const auto &p = std::get<SyntheticPoint>(point);
    return runSyntheticLoad(p.topo, p.nodes, p.meshWidth, p.meshHeight,
                            p.pattern, p.injectionRate, p.packetFlits,
                            p.cycles);
}

template <class R>
R
Sweep::request(SweepPoint point)
{
    const auto it = std::find(points_.begin(), points_.end(), point);
    if (rendering_) {
        if (it == points_.end())
            panic("figure ", figure_, " asked its second pass for a point "
                  "its first pass did not");
        return std::get<R>(results_[it - points_.begin()]);
    }
    ++requested_[point.index()];
    if (it == points_.end()) {
        ++distinct_[point.index()];
        points_.push_back(std::move(point));
    }
    return R{};
}

RunResults
Sweep::run(const SystemConfig &cfg, const std::string &gpu,
           const std::string &cpu)
{
    return request<RunResults>(ChipPoint{cfg, gpu, cpu});
}

SyntheticResult
Sweep::run(const SyntheticPoint &point)
{
    return request<SyntheticResult>(point);
}

void
Sweep::print(const char *fmt, ...)
{
    std::va_list args, sizing;
    va_start(args, fmt);
    va_copy(sizing, args);
    const std::size_t at = text_.size();
    text_.resize(at + std::vsnprintf(nullptr, 0, fmt, sizing) + 1);
    std::vsnprintf(text_.data() + at, text_.size() - at, fmt, args);
    text_.pop_back();  // vsnprintf's terminator
    va_end(sizing);
    va_end(args);
}

int
figuresMain(int argc, char **argv, std::vector<Figure> figures,
            const PointRunner &runner, int cpus)
{
    const auto start = std::chrono::steady_clock::now();
    int jobs = cpus;
    std::filesystem::path outDir;
    std::vector<Figure> picked;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto named = std::ranges::find(figures, arg, &Figure::name);
        if (arg == "-j" && i + 1 < argc) {
            jobs = static_cast<int>(parseWhole("-j", argv[++i], 1, 1024));
        } else if (arg == "-o" && i + 1 < argc) {
            outDir = argv[++i];
        } else if (named != figures.end()) {
            picked.push_back(*named);
        } else {
            fatal("usage: figures [-j N] [-o DIR] [name ...]; no figure '",
                  arg, "' (DESIGN.md §4 lists them)");
        }
    }
    if (picked.empty())
        picked = figures;
    std::ranges::sort(picked, {}, &Figure::name);
    picked.erase(std::ranges::unique(picked, {}, &Figure::name).begin(),
                 picked.end());
    std::error_code error;
    if (!outDir.empty())
        std::filesystem::create_directories(outDir, error);
    if (error)
        fatal("figures: cannot create ", outDir.string(), ": ",
              error.message());
    // Each point runs DR_NOC_THREADS spinning threads, and a descheduled
    // one stalls every cycle of its simulation.
    const int threads = static_cast<int>(
        envWhole("DR_NOC_THREADS", 1, NocConfig::maxThreads, 1));
    const int fit = std::max(1, cpus / threads);
    if (jobs > fit) {
        std::fprintf(stderr,
                     "figures: lowering -j %d to %d: %d jobs x "
                     "DR_NOC_THREADS=%d fits %d CPUs\n",
                     jobs, fit, fit, threads, cpus);
        jobs = fit;
    }

    // Pass 1 records the points, the pool runs them, pass 2 renders.
    Sweep s;
    for (const Figure &f : picked) {
        s.figure_ = f.name;
        f.body(s);
    }
    s.results_.resize(s.points_.size());
    std::atomic<std::size_t> next{0};
    {
        std::vector<std::jthread> pool;
        for (int w = 0; w < jobs; ++w) {
            pool.emplace_back([&] {
                for (std::size_t i; (i = next++) < s.points_.size();)
                    s.results_[i] = runner(s.points_[i]);
            });
        }
    }
    s.rendering_ = true;
    const auto write = [&](const std::string &name, const std::string &text) {
        std::ofstream out(outDir / name, std::ios::binary);
        if (!(out << text).flush())
            fatal("figures: cannot write ", (outDir / name).string());
    };
    std::string all;
    for (const Figure &f : picked) {
        s.figure_ = f.name;
        s.text_.clear();
        f.body(s);
        all += s.text_;
        if (!outDir.empty())
            write(f.name + ".txt", s.text_);
    }
    if (!outDir.empty()) {
        write("bench_output.txt", all);
    } else {
        std::fwrite(all.data(), 1, all.size(), stdout);
        flushStdout("figures", "tables");
    }
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    std::fprintf(stderr,
                 "figures: %d chip points requested, %d distinct; %d "
                 "synthetic requested, %d distinct; -j %d, %.1f s\n",
                 s.requested_[0], s.distinct_[0], s.requested_[1],
                 s.distinct_[1], jobs, wall.count());
    return 0;
}

} // namespace dr
