#ifndef DR_COMMON_OWNERSHIP_HPP
#define DR_COMMON_OWNERSHIP_HPP

/**
 * @file
 * Phase/domain ownership annotations for the deterministic parallel
 * tick engine (DESIGN.md §12). The engine's bit-identical guarantee
 * rests on a discipline that used to be tribal knowledge: compute-phase
 * code touches only state owned by its spatial domain, every
 * cross-domain effect rides an SPSC staging queue, and the serial
 * commit/merge sections own everything else. The macros below make that
 * discipline *declared in the source* so it can be checked three ways:
 *
 *  1. statically by tools/drlint.py (token-level, no compiler needed),
 *  2. by clang's -Wthread-safety when building with -DDR_THREAD_SAFETY
 *     (the macros expand to capability/guarded_by/requires_capability
 *     attributes; they are no-ops under gcc and in release builds),
 *  3. dynamically in DR_CHECKED builds via writer-domain stamping
 *     (DR_DOMAIN_STAMP and the DR_STAMP_* helpers), which panics on a
 *     cross-domain compute-phase write at runtime.
 *
 * Vocabulary (see DESIGN.md §12 for the full model):
 *
 *  DR_DOMAIN_OWNED   member/struct: written during the parallel phases
 *                    only by the owning domain's worker; serial code may
 *                    also touch it (it holds exclusive access between
 *                    barriers).
 *  DR_SHARED_SPSC    member: an SPSC staging structure — one producer
 *                    appends during phase 1, one consumer drains during
 *                    phase 2, the barrier between them is the
 *                    synchronization.
 *  DR_SERIAL_ONLY    member: written only from serial (commit-phase)
 *                    code; the parallel phases may read it (it is frozen
 *                    while workers run).
 *  DR_COMPUTE_PHASE  method: runs inside a parallel phase, confined to
 *                    its domain; may write only DR_DOMAIN_OWNED and
 *                    DR_SHARED_SPSC state.
 *  DR_COMMIT_PHASE   method: runs only in the serial sections (between
 *                    ticks, or the merge after the second barrier); may
 *                    write anything.
 *
 * Public API boundaries don't carry DR_COMMIT_PHASE (that would force
 * annotations onto every caller in the simulator); they instead open
 * with DR_PHASE_ASSERT_COMMIT(), which asserts the capability for
 * clang's analysis and, in DR_CHECKED builds, panics if called from a
 * parallel phase.
 */

#include <cstdint>

#include "common/log.hpp"

// Thread-safety attribute plumbing: real attributes only under clang
// with -DDR_THREAD_SAFETY (the opt-in -Wthread-safety configuration);
// empty everywhere else so gcc and release builds see plain C++.
#if defined(__clang__) && defined(DR_THREAD_SAFETY)
#define DR_TS_ATTR(x) __attribute__((x))
#else
#define DR_TS_ATTR(x)
#endif

namespace dr
{

/**
 * A phase capability: a token clang's analysis tracks instead of a
 * lock. `computePhaseCap` is "I am a worker inside a parallel phase";
 * `serialPhaseCap` is "I am the serial section". Compute-phase code
 * holds computePhaseCap exclusively and serialPhaseCap shared (serial
 * state is frozen while workers run, so reading it is legal); serial
 * code holds serialPhaseCap exclusively.
 */
class DR_TS_ATTR(capability("phase")) PhaseCapability
{
  public:
    explicit constexpr PhaseCapability(const char *name) : name_(name) {}
    const char *name() const { return name_; }

  private:
    const char *name_;
};

inline constexpr PhaseCapability computePhaseCap{"compute-phase"};
inline constexpr PhaseCapability serialPhaseCap{"serial-phase"};

namespace phase
{

/** Which kind of code the current thread is executing. */
enum class Kind : std::uint8_t
{
    Serial,   //!< between ticks / merge: the default
    Compute,  //!< inside a parallel phase, pinned to one domain
};

struct State
{
    Kind kind = Kind::Serial;
    std::int16_t domain = -1;
};

inline State &
tls()
{
    thread_local State state;
    return state;
}

/**
 * RAII: enter a parallel phase as `domain`'s worker. The engine wraps
 * tickDomain()/commitStaged() in one of these; the stamp checks below
 * read the scope's domain to validate every write. Free outside
 * DR_CHECKED builds.
 */
class ComputeScope
{
  public:
#ifdef DR_CHECKED
    explicit ComputeScope(int domain)
    {
        State &t = tls();
        prev_ = t;
        t.kind = Kind::Compute;
        t.domain = static_cast<std::int16_t>(domain);
    }

    ~ComputeScope() { tls() = prev_; }

  private:
    State prev_;
#else
    explicit ComputeScope(int) {}
#endif

  public:
    ComputeScope(const ComputeScope &) = delete;
    ComputeScope &operator=(const ComputeScope &) = delete;
};

/** Clang: establish the serial capability; DR_CHECKED: panic if this
 *  thread is inside a parallel phase. */
inline void
assertCommitPhase(const char *what)
    DR_TS_ATTR(assert_capability(::dr::serialPhaseCap))
{
#ifdef DR_CHECKED
    const State &t = tls();
    if (t.kind == Kind::Compute) {
        panic("phase violation: ", what, " entered from compute phase "
              "(domain ", t.domain, "); it is serial-only");
    }
#else
    (void)what;
#endif
}

/** Clang: establish the compute capability (plus shared serial, for
 *  reads of frozen serial state); DR_CHECKED: panic unless this thread
 *  is inside a ComputeScope. */
inline void
assertComputePhase(const char *what)
    DR_TS_ATTR(assert_capability(::dr::computePhaseCap))
    DR_TS_ATTR(assert_shared_capability(::dr::serialPhaseCap))
{
#ifdef DR_CHECKED
    if (tls().kind != Kind::Compute) {
        panic("phase violation: ", what,
              " entered outside a compute scope");
    }
#else
    (void)what;
#endif
}

/**
 * Entry assert for endpoint tick paths (DESIGN.md §13): legal from
 * serial code (which holds exclusive access between barriers) or from
 * the compute worker that owns `domain`; panics on a compute-phase
 * call from any other domain. `domain < 0` means "not partitioned"
 * (unit tests driving an endpoint directly) and accepts any caller.
 */
inline void
assertPhaseDomain(int domain, const char *what)
    DR_TS_ATTR(assert_shared_capability(::dr::serialPhaseCap))
{
#ifdef DR_CHECKED
    const State &t = tls();
    if (t.kind == Kind::Compute && domain >= 0 && t.domain != domain) {
        panic("phase violation: ", what, " owned by endpoint domain ",
              domain, " entered from compute domain ", t.domain);
    }
#else
    (void)domain;
    (void)what;
#endif
}

} // namespace phase

/**
 * Writer-domain stamp carried by every domain-owned structure
 * (DR_DOMAIN_STAMP). `owner` is assigned at partition time; `writer`
 * records the domain of the last checked write (DR_CHECKED builds), so
 * an audit can spot a write path that dodged the checking entry points.
 */
struct DomainStamp
{
    std::int16_t owner = -1;
    std::int16_t writer = -1;
};

namespace phase
{

/** Hot-path write check: a compute-phase write must come from the
 *  owning domain's worker. Serial writes are always legal. */
inline void
checkStampedWrite(DomainStamp &stamp, const char *what)
{
#ifdef DR_CHECKED
    State &t = tls();
    if (t.kind == Kind::Compute && stamp.owner != t.domain) {
        panic("phase violation: compute-phase write to ", what,
              " owned by domain ", stamp.owner, " from domain ",
              t.domain);
    }
    stamp.writer = t.kind == Kind::Compute ? t.domain : stamp.owner;
#else
    (void)stamp;
    (void)what;
#endif
}

/** Audit (invariant sweeps): the last recorded writer must be the
 *  owner — anything else is a write path that bypassed the checks. */
inline void
auditStamp(const DomainStamp &stamp, const char *what)
{
#ifdef DR_CHECKED
    if (stamp.writer >= 0 && stamp.writer != stamp.owner) {
        panic("phase stamp audit: ", what, " owned by domain ",
              stamp.owner, " was last written by domain ", stamp.writer);
    }
#else
    (void)stamp;
    (void)what;
#endif
}

} // namespace phase
} // namespace dr

// --- member / struct classification ---------------------------------------
// Trailing position on a member declaration (like clang's guarded_by):
//   NetworkStats stats_ DR_SERIAL_ONLY;
// or between the struct keyword and the name to classify a whole type:
//   struct DR_DOMAIN_OWNED Ni { ... };

#define DR_DOMAIN_OWNED /* per-domain ownership: checked by drlint */
#define DR_SHARED_SPSC  /* staged cross-domain hand-off: checked by drlint */
#define DR_SERIAL_ONLY DR_TS_ATTR(guarded_by(::dr::serialPhaseCap))

// --- method phase classification ------------------------------------------
// Trailing position on a method declaration:
//   void tickDomain(Domain &d, Cycle now) DR_COMPUTE_PHASE;

#define DR_COMPUTE_PHASE                                                   \
    DR_TS_ATTR(requires_capability(::dr::computePhaseCap))                 \
    DR_TS_ATTR(requires_shared_capability(::dr::serialPhaseCap))
#define DR_COMMIT_PHASE DR_TS_ATTR(requires_capability(::dr::serialPhaseCap))

/**
 * Read-only accessor of serial state callable from either phase:
 * serial code holds the capability exclusively, compute-phase code
 * holds it shared (the state is frozen while workers run).
 */
#define DR_PHASE_READ DR_TS_ATTR(requires_shared_capability(::dr::serialPhaseCap))

/** Opt a function out of clang's analysis (mutant-injection hooks). */
#define DR_PHASE_UNCHECKED DR_TS_ATTR(no_thread_safety_analysis)

/**
 * Endpoint tick path (DESIGN.md §13): runs inside the endpoint compute
 * phase when the system-level engine is active, confined to the
 * endpoint's domain, or from plain serial code (unit tests drive
 * endpoints directly; serial code holds exclusive access). drlint
 * checks these bodies under the same rules as DR_COMPUTE_PHASE ones;
 * clang's analysis treats them as shared readers of frozen serial
 * state. Entry points open with DR_PHASE_ASSERT_DOMAIN(domain_).
 */
#define DR_ENDPOINT_PHASE                                                  \
    DR_TS_ATTR(requires_shared_capability(::dr::serialPhaseCap))

// --- phase assertions at API boundaries -----------------------------------

#define DR_PHASE_ASSERT_COMMIT()                                           \
    ::dr::phase::assertCommitPhase(__func__)
#define DR_PHASE_ASSERT_COMPUTE()                                          \
    ::dr::phase::assertComputePhase(__func__)
#define DR_PHASE_ASSERT_DOMAIN(dom)                                        \
    ::dr::phase::assertPhaseDomain((dom), __func__)

// --- writer-domain stamping (dynamic truth-checking) ----------------------

/** Declare the stamp member inside an annotated structure. */
#define DR_DOMAIN_STAMP ::dr::DomainStamp drStamp_

/** Assign the owning domain (partition time; any build type). */
#define DR_STAMP_SET_OWNER(obj, dom)                                       \
    ((obj).drStamp_.owner = static_cast<std::int16_t>(dom))

/** Validate + record a write to a stamped structure (DR_CHECKED). */
#define DR_STAMP_WRITE(obj)                                                \
    ::dr::phase::checkStampedWrite((obj).drStamp_, #obj)

/** Audit a stamped structure from an invariant sweep (DR_CHECKED). */
#define DR_STAMP_AUDIT(obj)                                                \
    ::dr::phase::auditStamp((obj).drStamp_, #obj)

#endif // DR_COMMON_OWNERSHIP_HPP
