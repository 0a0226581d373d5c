#ifndef DR_COMMON_OWNERSHIP_HPP
#define DR_COMMON_OWNERSHIP_HPP

/**
 * @file
 * Phase/domain ownership annotations for the deterministic parallel
 * tick engine (DESIGN.md §12). The engine's bit-identical guarantee
 * rests on a discipline that used to be tribal knowledge: compute-phase
 * code touches only state owned by its spatial domain, every
 * cross-domain effect waits in the sending domain's outgoing list, and
 * the serial merge owns everything else. The macros below make that
 * discipline *declared in the source* so it can be checked two ways:
 *
 *  1. statically by tools/drlint.py (token-level, no compiler needed),
 *  2. dynamically in DR_CHECKED builds via writer-domain stamping
 *     (DR_DOMAIN_STAMP and the DR_STAMP_* helpers), which panics on a
 *     cross-domain compute-phase write at runtime.
 *
 * Vocabulary (see DESIGN.md §12 for the full model):
 *
 *  DR_DOMAIN_OWNED   member/struct: written during the parallel phases
 *                    only by the owning domain's worker; serial code may
 *                    also touch it (it holds exclusive access between
 *                    barriers).
 *  DR_SERIAL_ONLY    member: written only from serial (commit-phase)
 *                    code; the parallel phases may read it (it is frozen
 *                    while workers run).
 *  DR_COMPUTE_PHASE  method: runs inside a parallel phase, confined to
 *                    its domain; may write only DR_DOMAIN_OWNED state.
 *  DR_COMMIT_PHASE   method: runs only in the serial sections (between
 *                    ticks, or the merge after the barrier); may write
 *                    anything.
 *
 * Every classification macro is an empty marker that drlint reads; none
 * changes the compiled code. Public API boundaries don't carry
 * DR_COMMIT_PHASE (that would force annotations onto every caller in
 * the simulator); they instead open with DR_PHASE_ASSERT_COMMIT(),
 * which drlint reads as a commit-phase declaration and which, in
 * DR_CHECKED builds, panics if called from a parallel phase.
 */

#include <cstdint>

#include "common/log.hpp"

namespace dr
{
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
 * each domain's slot of the compute run (its tickDomain() calls and
 * endpoint ticks) in one of these; the stamp checks below
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

/** DR_CHECKED: panic if this thread is inside a parallel phase. */
inline void
assertCommitPhase(const char *what)
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

/** DR_CHECKED: panic unless this thread is inside a ComputeScope. */
inline void
assertComputePhase(const char *what)
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
{
#ifdef DR_CHECKED
    const State &t = tls();
    if (t.kind == Kind::Compute && domain >= 0 && t.domain != domain) {
        panic("phase violation: ", what, " owned by domain ",
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
// Trailing position on a member declaration:
//   NetworkStats stats_ DR_SERIAL_ONLY;
// or between the struct keyword and the name to classify a whole type:
//   struct DR_DOMAIN_OWNED Ni { ... };

#define DR_DOMAIN_OWNED /* per-domain ownership: checked by drlint */
#define DR_SERIAL_ONLY  /* serial-phase writes only: checked by drlint */

// --- method phase classification ------------------------------------------
// Trailing position on a method declaration:
//   void tickDomain(Domain &d, Cycle now) DR_COMPUTE_PHASE;

#define DR_COMPUTE_PHASE  /* parallel phase, domain-confined */
#define DR_COMMIT_PHASE   /* serial sections only */

/**
 * Read-only accessor of serial state callable from either phase (the
 * state is frozen while workers run).
 */
#define DR_PHASE_READ

/**
 * Endpoint tick path (DESIGN.md §13): runs inside the endpoint compute
 * phase when the system-level engine is active, confined to the
 * endpoint's domain, or from plain serial code (unit tests drive
 * endpoints directly; serial code holds exclusive access). drlint
 * checks these bodies under the same rules as DR_COMPUTE_PHASE ones.
 * Entry points open with DR_PHASE_ASSERT_DOMAIN(domain_).
 */
#define DR_ENDPOINT_PHASE

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
