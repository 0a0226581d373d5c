#include "core/config_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <type_traits>
#include <variant>

#include "common/format.hpp"
#include "common/log.hpp"

namespace dr
{

namespace
{

std::string
trim(const std::string &s)
{
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

/**
 * A number of type T, or fatal() naming the key and what it `expects`.
 * Malformed input is a user error, not a simulator bug, so it goes
 * through fatal() like every other configuration problem. from_chars
 * ignores the locale and takes no sign for unsigned T, so "-1" is an
 * error there rather than a wrap to 2^64-1.
 */
template <typename T>
T
parseNumber(const std::string &key, const std::string &value,
            const char *expects)
{
    T parsed{};
    const char *first = value.data();
    const char *last = first + value.size();
    const auto [ptr, ec] = std::from_chars(first, last, parsed);
    if (ec != std::errc{} || ptr != last || value.empty())
        fatal("config: '", key, "' expects ", expects, ", got '", value,
              "'");
    return parsed;
}

/** Comma-separated integer list; an empty value is an empty list. */
std::vector<int>
parseIntList(const std::string &key, const std::string &value)
{
    std::vector<int> out;
    if (value.empty())
        return out;
    std::stringstream ss(value);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(parseNumber<int>(key, trim(item), "an integer"));
    return out;
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "true" || value == "1")
        return true;
    if (value == "false" || value == "0")
        return false;
    fatal("config: '", key, "' expects true/false, got '", value, "'");
}

/** A config enum by any spelling in its row (common/types.cpp). */
template <typename E>
E
parseEnum(const std::string &value)
{
    if (const Spelling<E> *row = findSpelling<E>(value))
        return row->value;
    fatal("config: unknown ", spellings(E{}).noun, " '", value, "'");
}

/** `seed` is any 64-bit value; the wrapper keeps it apart from Cycle. */
struct Seed
{
    std::uint64_t *value;
};

/** The SystemConfig field a key sets; its type picks the value codec. */
using Field = std::variant<int *, Cycle *, Seed, double *, bool *,
                           std::vector<int> *, Mechanism *, ChipLayout *,
                           TopologyKind *, RoutingKind *, L1Organization *,
                           CtaSchedule *>;

/** One config key: its name and the field it reads and writes. */
struct Key
{
    const char *name;
    Field (*field)(SystemConfig &);
};

#define DR_FIELD(member) [](SystemConfig &c) -> Field { return &c.member; }

/** Every config key, in the order writeConfig prints them. */
const Key kKeys[] = {
    {"mechanism", DR_FIELD(mechanism)},
    {"layout", DR_FIELD(layout)},
    {"seed", [](SystemConfig &c) -> Field { return Seed{&c.seed}; }},
    {"sim.cycles", DR_FIELD(simCycles)},
    {"sim.warmup", DR_FIELD(warmupCycles)},
    {"sim.idleSkip", DR_FIELD(idleSkip)},
    {"noc.topology", DR_FIELD(noc.topology)},
    {"noc.meshWidth", DR_FIELD(noc.meshWidth)},
    {"noc.meshHeight", DR_FIELD(noc.meshHeight)},
    {"noc.chipletsX", DR_FIELD(noc.chipletsX)},
    {"noc.chipletsY", DR_FIELD(noc.chipletsY)},
    {"noc.chipletSubW", DR_FIELD(noc.chipletSubW)},
    {"noc.chipletSubH", DR_FIELD(noc.chipletSubH)},
    {"noc.chipletLinksPerEdge", DR_FIELD(noc.chipletLinksPerEdge)},
    {"noc.interposerChannelBytes", DR_FIELD(noc.interposerChannelBytes)},
    {"noc.interposerLatency", DR_FIELD(noc.interposerLatency)},
    {"noc.channelBytes", DR_FIELD(noc.channelBytes)},
    {"noc.vcsPerNet", DR_FIELD(noc.vcsPerNet)},
    {"noc.vcDepthFlits", DR_FIELD(noc.vcDepthFlits)},
    {"noc.routerStages", DR_FIELD(noc.routerStages)},
    {"noc.threads", DR_FIELD(noc.threads)},
    {"noc.sharedPhysical", DR_FIELD(noc.sharedPhysical)},
    {"noc.sharedReqVcs", DR_FIELD(noc.sharedReqVcs)},
    {"noc.sharedReplyVcs", DR_FIELD(noc.sharedReplyVcs)},
    {"noc.vnets", DR_FIELD(noc.vnets)},
    {"noc.vnetRequestVcs", DR_FIELD(noc.vnetRequestVcs)},
    {"noc.vnetForwardVcs", DR_FIELD(noc.vnetForwardVcs)},
    {"noc.vnetReplyVcs", DR_FIELD(noc.vnetReplyVcs)},
    {"noc.vnetDelegatedVcs", DR_FIELD(noc.vnetDelegatedVcs)},
    {"noc.requestRouting", DR_FIELD(noc.requestRouting)},
    {"noc.replyRouting", DR_FIELD(noc.replyRouting)},
    {"noc.memInjBufferFlits", DR_FIELD(noc.memInjBufferFlits)},
    {"noc.coreInjBufferFlits", DR_FIELD(noc.coreInjBufferFlits)},
    {"noc.ejBufferFlits", DR_FIELD(noc.ejBufferFlits)},
    {"noc.bandwidthScale", DR_FIELD(noc.bandwidthScale)},
    {"gpu.numCores", DR_FIELD(gpu.numCores)},
    {"gpu.warpsPerCore", DR_FIELD(gpu.warpsPerCore)},
    {"gpu.issueWidth", DR_FIELD(gpu.issueWidth)},
    {"gpu.l1SizeKB", DR_FIELD(gpu.l1SizeKB)},
    {"gpu.l1Assoc", DR_FIELD(gpu.l1Assoc)},
    {"gpu.l1Mshrs", DR_FIELD(gpu.l1Mshrs)},
    {"gpu.frqEntries", DR_FIELD(gpu.frqEntries)},
    {"gpu.l1Org", DR_FIELD(gpu.l1Org)},
    {"gpu.ctaSchedule", DR_FIELD(gpu.ctaSchedule)},
    {"cpu.numCores", DR_FIELD(cpu.numCores)},
    {"cpu.l1SizeKB", DR_FIELD(cpu.l1SizeKB)},
    {"mem.numNodes", DR_FIELD(mem.numNodes)},
    {"mem.llcSliceKB", DR_FIELD(mem.llcSliceKB)},
    {"mem.llcAssoc", DR_FIELD(mem.llcAssoc)},
    {"mem.llcLatency", DR_FIELD(mem.llcLatency)},
    {"mem.llcMshrs", DR_FIELD(mem.llcMshrs)},
    {"mem.banksPerMc", DR_FIELD(mem.banksPerMc)},
    {"mem.burstCycles", DR_FIELD(mem.burstCycles)},
    {"mem.placement", DR_FIELD(mem.placement)},
    {"dr.delegateAlways", DR_FIELD(dr.delegateAlways)},
    {"dr.frqRemotePriority", DR_FIELD(dr.frqRemotePriority)},
    {"rp.probeCount", DR_FIELD(rp.probeCount)},
    {"rp.predictorEntries", DR_FIELD(rp.predictorEntries)},
    {"debug.watchdogCycles", DR_FIELD(debug.watchdogCycles)},
    {"debug.watchdogAbort", DR_FIELD(debug.watchdogAbort)},
    {"debug.mshrLeakCycles", DR_FIELD(debug.mshrLeakCycles)},
    {"debug.sweepCycles", DR_FIELD(debug.sweepCycles)},
};

#undef DR_FIELD

/** std::visit over a set of lambdas. */
template <typename... Fs>
struct Overloaded : Fs...
{
    using Fs::operator()...;
};

} // namespace

void
applyConfigOption(SystemConfig &cfg, const std::string &rawKey,
                  const std::string &rawValue)
{
    const std::string key = trim(rawKey);
    const std::string value = trim(rawValue);
    const Key *k = std::find_if(std::begin(kKeys), std::end(kKeys),
                                [&](const Key &e) { return key == e.name; });
    if (k == std::end(kKeys))
        fatal("config: unknown option '", key, "'");
    std::visit(
        Overloaded{
            [&](int *f) {
                *f = parseNumber<int>(key, value, "an integer");
            },
            [&](Cycle *f) {
                *f = parseNumber<Cycle>(key, value,
                                        "a non-negative cycle count");
            },
            [&](Seed f) {
                *f.value = parseNumber<std::uint64_t>(
                    key, value, "an unsigned 64-bit whole number");
            },
            [&](double *f) {
                *f = parseNumber<double>(key, value, "a number");
            },
            [&](bool *f) { *f = parseBool(key, value); },
            [&](std::vector<int> *f) { *f = parseIntList(key, value); },
            [&](auto *e) {
                *e = parseEnum<std::remove_pointer_t<decltype(e)>>(value);
            },
        },
        k->field(cfg));
}

void
parseConfig(SystemConfig &cfg, std::istream &in)
{
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal("config: line ", lineNo, " has no '=': '", line, "'");
        applyConfigOption(cfg, line.substr(0, eq), line.substr(eq + 1));
    }
}

void
parseConfigFile(SystemConfig &cfg, const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("config: cannot open '", path, "'");
    parseConfig(cfg, in);
}

void
writeConfig(const SystemConfig &cfg, std::ostream &out)
{
    SystemConfig fields = cfg;  // the key table hands out mutable fields
    for (const Key &k : kKeys) {
        out << k.name << " = ";
        std::visit(
            Overloaded{
                [&](int *f) { out << *f; },
                [&](Cycle *f) { out << *f; },
                [&](Seed f) { out << *f.value; },
                [&](double *f) { writeNumber(out, *f); },
                [&](bool *f) { out << (*f ? "true" : "false"); },
                [&](std::vector<int> *f) {
                    for (std::size_t i = 0; i < f->size(); ++i)
                        out << (i ? "," : "") << (*f)[i];
                },
                [&](auto *e) { out << spellingOf(*e).config; },
            },
            k.field(fields));
        out << "\n";
    }
}

} // namespace dr
