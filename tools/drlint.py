#!/usr/bin/env python3
"""drlint - static checks behind the simulator's determinism contract.

The simulator must be bit-reproducible for a fixed seed (DESIGN.md
paragraph 6) and bit-identical across noc.threads (DESIGN.md §11-§14).
One pass reads every C++ source under the given paths once, blanks
comments and literals once, and builds one class model: members with
their ownership classification (src/common/ownership.hpp), methods with
their phase, virtual/pure flags and return types, bases, and every
method body (inline, or out-of-line in house style). Three rule
families read that model.

Determinism hazards, line by line:

  unordered-container      declaration of std::unordered_map/set (must
                           carry a drlint-allow annotation arguing that
                           iteration order is never observed)
  unordered-iteration      range-for / .begin() / iterator loops over a
                           container declared unordered in the same file
                           or its sibling header
  raw-random               rand()/srand()/std::random_device/std::mt19937
                           etc. outside the seeded Rng wrapper
                           (src/common/rng.hpp)
  wall-clock               time()/clock()/gettimeofday/chrono clocks in
                           simulation code
  pointer-keyed-container  std::map/std::set/unordered_* keyed on a raw
                           pointer type (allocator-dependent order/hash)
  atomic-rmw-order         atomic RMW in src/noc/ without an explicit
                           memory_order

Phase ownership, on every compute/endpoint-phase body (DESIGN.md §12):

  compute-writes-serial       writes (or calls a mutating method on,
                              also through a field chain, or binds a
                              mutable reference to) DR_SERIAL_ONLY state
  compute-writes-unannotated  writes a member with no classification
  compute-calls-commit        calls a commit-phase method
  unannotated-state           a mutable member of a tick-reachable class
                              carries no classification (and no exempt
                              type: atomics, mutexes, threads, the
                              barrier and the tick pool synchronize
                              themselves)
  cross-domain-commit         pushes a flit (credit) into an indexed
                              domain's wheel or router with no outgoing-
                              list (outgoingCredits) path for the case
                              where that domain is not its own
  spsc-drain-order            (any body) drains the outgoing lists in
                              descending producer order
  missing-stamp-check         binds a stamped structure (one declaring
                              DR_DOMAIN_STAMP: Ni&, Domain&...) but
                              never calls DR_STAMP_WRITE
  serial-call-in-compute      invokes a DR_SERIAL_ONLY callable member
                              (e.g. the locality oracle) mid-phase

Cross-TU reachability (DESIGN.md §14): starting from every compute-phase
body, an unannotated callee - in any file, through member objects,
getters and virtual dispatch - is inferred compute-phase and judged by
the same ownership rules in the receiver context of the call chain:

  phase-escape                  a method reachable from a parallel phase
                                writes serial/unannotated state or calls
                                a commit-phase method
  virtual-dispatch-unclassified a phase-reachable virtual call has an
                                overrider with no declared phase and no
                                analyzable body
  l1-unconfined                 an L1Organizer implementation's per-core
                                entry paths (load/write/fill/contains)
                                mutate state not indexed by the calling
                                core; every implementation runs in the
                                parallel endpoint phase, so every one
                                must be core-confined

Suppression: ``// drlint-allow(<rule>)`` (optionally ``: reason``) on
the offending line or anywhere in the contiguous ``//`` comment block
directly above it. On a call line it cuts the taint chain through that
call. A tag naming no rule is itself a finding (unknown-allow), so a
renamed or misspelled rule cannot leave a suppression that does nothing.

The gate is zero findings. Every run also prints the L1 confinement
verdict table.

Usage:
  drlint.py [--root DIR] [--list-rules] [paths]   (default: src tools)

Exits 0 when clean, 1 on findings, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

RULES = {
    "unordered-container":
        "std::unordered_map/std::unordered_set declaration (annotate "
        "with drlint-allow if iteration order is never observed)",
    "unordered-iteration":
        "iteration over a container declared unordered in this file",
    "raw-random":
        "raw randomness outside the seeded RNG wrapper",
    "wall-clock":
        "wall-clock/time source in simulation code",
    "pointer-keyed-container":
        "ordered/hashed container keyed on a raw pointer",
    "atomic-rmw-order":
        "atomic RMW in src/noc/ without an explicit memory_order (the "
        "default seq_cst hides the intended ordering contract of the "
        "parallel tick engine's handoffs)",
    "compute-writes-serial":
        "compute-phase method writes DR_SERIAL_ONLY state",
    "compute-writes-unannotated":
        "compute-phase method writes a member with no ownership "
        "classification",
    "compute-calls-commit":
        "compute-phase method calls a commit-phase method",
    "unannotated-state":
        "mutable member of a tick-reachable class has no ownership "
        "classification",
    "cross-domain-commit":
        "compute-phase method mutates a foreign domain's router instead "
        "of using its domain's outgoing list",
    "spsc-drain-order":
        "outgoing lists drained in descending producer order",
    "missing-stamp-check":
        "compute-phase method binds a stamped structure but never calls "
        "DR_STAMP_WRITE",
    "serial-call-in-compute":
        "compute/endpoint-phase method invokes a DR_SERIAL_ONLY callable "
        "member mid-phase instead of staging the query",
    "phase-escape":
        "method reachable from a parallel phase writes serial or "
        "unannotated state (or calls a commit-phase method)",
    "virtual-dispatch-unclassified":
        "phase-reachable virtual call whose overriders are not all "
        "classified or analyzable",
    "l1-unconfined":
        "L1Organizer implementation whose per-core entry paths are not "
        "confined to the calling core's state",
    "unknown-allow":
        "drlint-allow tag naming no rule (it would suppress nothing)",
}

SOURCE_EXTS = (".hpp", ".cpp", ".h", ".cc")

# Files whose whole purpose exempts them from one rule.
EXEMPT = {
    os.path.join("src", "common", "rng.hpp"): {"raw-random"},
}

ALLOW_RE = re.compile(r"drlint-allow\(([^)]*)\)")

# -- determinism patterns ---------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
# `for (... : name)` range-for, or explicit iterator walks.
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*:\s*(?:this\s*->\s*)?"
                          r"([A-Za-z_]\w*)\s*\)")
# .end() alone is the find()-comparison idiom, not iteration, so only
# the begin family counts.
ITER_CALL_RE = re.compile(r"\b(?:this\s*->\s*)?([A-Za-z_]\w*)\s*\.\s*"
                          r"(?:begin|cbegin|rbegin)\s*\(")
# The C library calls match bare or qualified as std:: or ::, but not
# as members of any other namespace.
RAW_RANDOM_RE = re.compile(
    r"\bstd\s*::\s*(?:random_device|mt19937(?:_64)?|minstd_rand0?|"
    r"default_random_engine|random_shuffle)\b"
    r"|(?<![\w:])(?:std\s*::\s*|::\s*)?"
    r"(?:rand|srand|rand_r|drand48|lrand48|random)\s*\(")
WALL_CLOCK_RE = re.compile(
    r"\bstd\s*::\s*chrono\s*::\s*(?:system_clock|steady_clock|"
    r"high_resolution_clock)\b"
    r"|(?<![\w:])(?:std\s*::\s*|::\s*)?"
    r"(?:time|clock|gettimeofday|clock_gettime)\s*\(")
POINTER_KEY_RE = re.compile(
    r"\bstd\s*::\s*(?:unordered_)?(?:map|set|multimap|multiset)\s*<"
    r"\s*(?:const\s+)?[A-Za-z_]\w*(?:\s*::\s*\w+)*\s*\*")
# Atomic read-modify-write entry points.
ATOMIC_RMW_RE = re.compile(
    r"\.\s*(fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
    r"exchange|compare_exchange_weak|compare_exchange_strong)\s*\(")

# -- ownership model --------------------------------------------------------

# Classes whose mutable members are reachable from a tick and therefore
# must carry an ownership classification. Nested structs inherit a
# class-level DR_DOMAIN_OWNED from their enclosing class.
COVERED_CLASSES = {
    "Network", "Router", "PacketPool", "SpinBarrier", "TickPool",
    "ActiveSet",
    "Ni", "Domain",
    "SmCore", "CpuNode", "MemNode", "HeteroSystem",
    "GpuCoherence", "MesiDirectory", "CtaScheduler",
    "PrivateL1", "SharedL1", "DynEbL1", "DramChannel",
}

# Member types that synchronize themselves (or are immutable): no
# phase classification required.
TYPE_EXEMPT_RE = re.compile(
    r"std\s*::\s*(?:atomic|mutex|condition_variable|thread|function)\b"
    r"|\b(?:SpinBarrier|TickPool)\b")

ANNOTATIONS = {
    "DR_DOMAIN_OWNED": "domain",
    "DR_SERIAL_ONLY": "serial",
}
# Endpoint-phase methods run inside the parallel endpoint compute phase
# and obey compute rules.
PHASE_TOKENS = (
    ("DR_COMPUTE_PHASE", "compute"),
    ("DR_ENDPOINT_PHASE", "compute"),
    ("DR_COMMIT_PHASE", "commit"),
    ("DR_PHASE_READ", "read"),
)

# Method names that mutate their object. Token-level stand-in for
# const-ness: calling one of these on serial/unannotated state from a
# compute method is a write.
MUTATING_CALLS = {
    "push_back", "emplace_back", "push_front", "pop_back", "pop_front",
    "clear", "insert", "erase", "resize", "reserve", "reset", "sample",
    "add", "release", "alloc", "scheduleArrival", "scheduleCredit",
    "applyFlit", "applyCredit", "tick",
    "wakeEjectSpace", "sweep", "setDomain", "resetStats", "onDelivered",
    "flush", "access", "evict", "next",
}

# L1Organizer per-core entry paths whose writes the confinement verdict
# judges: everything a lookup mutates must be banked by core.
ENTRY_METHODS = ("load", "write", "fill", "contains")

ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=",
              "<<=", ">>=")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
CPP_DEF_RE = re.compile(r"^([A-Za-z_]\w*)::(~?\w+)\s*\(")
CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+((?:DR_\w+\s+)*)(?:alignas\s*\([^)]*\)\s*)?"
    r"([A-Za-z_]\w*)")
BASES_RE = re.compile(r"[:,]\s*(?:public|protected|private)?\s*"
                      r"(?:virtual\s+)?([A-Za-z_]\w*)")
ACCESS_RE = re.compile(r"^\s*(?:public|private|protected)\s*:")
MEMBER_SKIP_RE = re.compile(
    r"^\s*(?:using|typedef|friend|static|enum|return|if|for|while|"
    r"switch|case|default|break|continue|template|virtual|explicit|"
    r"class|struct|union|#|namespace|DR_DOMAIN_STAMP)\b")
METHOD_NAME_RE = re.compile(r"([A-Za-z_]\w*|operator\s*\[\s*\])\s*\(")
# Declaration keywords stripped when recovering a return type.
DECL_KEYWORDS_RE = re.compile(
    r"\b(?:virtual|static|inline|explicit|constexpr|mutable|friend|"
    r"typename|override|final)\b")
DESCENDING_FOR_RE = re.compile(
    r"for\s*\([^;]*;\s*\w+\s*>=?\s*0\s*;\s*(?:--\s*\w+|\w+\s*--)")
DESCENDING_IDX_RE = re.compile(r"\w+\s*-\s*1\s*-\s*\w+")

# Call-site patterns inside a stripped body line.
MEMBER_CALL_RE = re.compile(
    r"(?<![\w.>])([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)*"
    r"(?:->|\.)\s*([A-Za-z_]\w*)\s*\(")
GETTER_CALL_RE = re.compile(
    r"(?<![\w.>])([A-Za-z_]\w*)\s*\([^()]*\)\s*\.\s*([A-Za-z_]\w*)\s*\(")
BARE_CALL_RE = re.compile(r"(?<![\w.>:])([A-Za-z_]\w*)\s*\(")
# A call through a field chain: base[i].field->callee( (subscripts
# allowed after every link).
CHAIN_CALL_RE = re.compile(
    r"(?<![\w.>])([A-Za-z_]\w*)\s*"
    r"((?:(?:\[[^\]]*\]\s*)*(?:->|\.)\s*[A-Za-z_]\w*\s*)+)\(")
CHAIN_LINK_RE = re.compile(r"(?:->|\.)\s*([A-Za-z_]\w*)")
CAST_RE = re.compile(r"\bstatic_cast\s*\(\s*")

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "static_cast",
    "const_cast", "reinterpret_cast", "dynamic_cast", "assert",
    "panic", "fatal", "new", "delete", "catch", "defined",
}


class Finding:
    def __init__(self, path: str, line: int, rule: str, text: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.text = text

    def __str__(self) -> str:
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.text.strip())


def strip_code(lines: list[str]) -> list[str]:
    """Return lines with comments and string/char literals blanked.

    A small state machine rather than a regex so that block comments
    spanning lines and quotes inside comments are handled; every rule
    then runs on code tokens only.
    """
    out = []
    in_block = False
    for raw in lines:
        res = []
        i = 0
        n = len(raw)
        while i < n:
            if in_block:
                end = raw.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = raw[i]
            nxt = raw[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                i += 1
                while i < n:
                    if raw[i] == "\\":
                        i += 2
                        continue
                    if raw[i] == quote:
                        i += 1
                        break
                    i += 1
                res.append(quote + quote)
                continue
            res.append(ch)
            i += 1
        out.append("".join(res))
    return out


def strip_templates(text: str) -> str:
    """Blank the contents of angle brackets so parentheses inside
    template arguments (std::function<bool(int, Addr)>) don't read as
    function declarations."""
    res = []
    depth = 0
    for ch in text:
        if ch == "<":
            depth += 1
            res.append(" ")
        elif ch == ">":
            depth = max(0, depth - 1)
            res.append(" ")
        elif depth == 0:
            res.append(ch)
        else:
            res.append(" ")
    return "".join(res)


class Source:
    """One file, read and stripped once, with its drlint-allow tags."""

    def __init__(self, path: str, rel: str):
        with open(path, encoding="utf-8", errors="replace") as fh:
            self.lines = fh.read().splitlines()
        self.rel = rel
        self.code = strip_code(self.lines)
        self.allows: dict[int, set[str]] = {}
        for lineno, raw in enumerate(self.lines, start=1):
            for match in ALLOW_RE.finditer(raw):
                self.allows.setdefault(lineno, set()).add(match.group(1))

    def allowed(self, lineno: int, rule: str) -> bool:
        """Tag on the line itself, or in the contiguous `//` comment
        block above it so a multi-line justification can carry it."""
        probe = lineno
        while rule not in self.allows.get(probe, ()):
            probe -= 1
            if probe < 1 or \
                    not self.lines[probe - 1].lstrip().startswith("//"):
                return False
        return True

    @functools.cached_property
    def unordered(self) -> set[str]:
        """Names of members/locals declared with an unordered container.

        The declared name is the first identifier after the closing
        angle bracket; scan forward across lines because long template
        arguments wrap.
        """
        names: set[str] = set()
        code = self.code
        for idx, line in enumerate(code):
            for match in UNORDERED_DECL_RE.finditer(line):
                depth = 0
                text = line[match.end() - 1:]
                j = idx
                while True:
                    for pos, ch in enumerate(text):
                        if ch == "<":
                            depth += 1
                        elif ch == ">":
                            depth -= 1
                            if depth == 0:
                                m = re.search(r"\b([A-Za-z_]\w*)",
                                              text[pos + 1:])
                                if m:
                                    names.add(m.group(1))
                                break
                    else:
                        j += 1
                        if depth <= 0 or j >= len(code):
                            break
                        text = code[j]
                        continue
                    break
        return names


class Body:
    """A method body: stripped lines numbered in their file."""

    def __init__(self, rel: str, lines: list[tuple[int, str]]):
        self.rel = rel
        self.lines = lines
        self.text = "\n".join(t for _, t in lines)


class Member:
    def __init__(self, annotation: str | None, type_text: str, rel: str,
                 line: int):
        self.annotation = annotation  # "domain"/"serial"/None
        self.type = type_text
        self.rel = rel
        self.line = line


class Method:
    """Every declaration and body of one method name (overloads merged)."""

    def __init__(self, name: str):
        self.name = name
        self.virtual = False
        self.pure = False
        self.phase: str | None = None  # compute/commit/read
        self.ret = ""
        self.bodies: list[Body] = []


class Cls:
    def __init__(self, name: str):
        self.name = name
        self.annotation: str | None = None  # class-level classification
        self.members: dict[str, Member] = {}
        self.methods: dict[str, Method] = {}
        self.bases: list[str] = []
        self.has_stamp = False
        self.rel: str | None = None  # where the class body opens
        self.line = 0

    def classification(self, member: str) -> str | None:
        m = self.members.get(member)
        if m is None:
            return None
        return m.annotation or self.annotation

    def method(self, name: str) -> Method:
        return self.methods.setdefault(name, Method(name))

    def phase(self, name: str) -> str | None:
        m = self.methods.get(name)
        return m.phase if m else None


def phase_of(text: str) -> str | None:
    """Declared phase from trailing DR_* tokens."""
    for tok, phase in PHASE_TOKENS:
        if re.search(r"\b%s\b" % tok, text):
            return phase
    return None


class Program:
    """The class model of every scanned source, and the findings."""

    def __init__(self, root: str):
        self.root = root
        self.sources: dict[str, Source] = {}
        self.classes: dict[str, Cls] = {}
        self.subclasses: dict[str, set[str]] = {}
        self.findings: list[Finding] = []
        self.verdicts: dict[str, Verdict] = {}

    def source(self, rel: str) -> Source:
        if rel not in self.sources:
            self.sources[rel] = Source(os.path.join(self.root, rel), rel)
        return self.sources[rel]

    def cls(self, name: str) -> Cls:
        return self.classes.setdefault(name, Cls(name))

    def report(self, rel: str, lineno: int, rule: str, text: str) -> None:
        if rule in EXEMPT.get(rel, ()) or \
                self.allowed(rel, lineno, rule):
            return
        self.findings.append(Finding(rel, lineno, rule, text))

    def allowed(self, rel: str, lineno: int, rule: str) -> bool:
        src = self.sources.get(rel)
        return src is not None and src.allowed(lineno, rule)

    # -- hierarchy ----------------------------------------------------------

    def ancestors(self, name: str) -> list[str]:
        out, work = [], [name]
        while work:
            c = self.classes.get(work.pop())
            if not c:
                continue
            for base in c.bases:
                if base not in out:
                    out.append(base)
                    work.append(base)
        return out

    def family(self, name: str) -> list[str]:
        """`name` plus every transitive subclass."""
        out, work = [name], [name]
        while work:
            cur = work.pop()
            for sub in sorted(self.subclasses.get(cur, ())):
                if sub not in out:
                    out.append(sub)
                    work.append(sub)
        return out

    def lineage(self, name: str) -> list[Cls]:
        """`name` then its ancestors, nearest first."""
        return [self.classes[c] for c in [name] + self.ancestors(name)
                if c in self.classes]

    def find_method(self, cls: str, name: str) -> tuple[str, Method] | None:
        """Resolve `name` in `cls` or the nearest ancestor declaring it."""
        for c in self.lineage(cls):
            if name in c.methods:
                return c.name, c.methods[name]
        return None

    def declared_phase(self, cls: str, name: str) -> str | None:
        """Phase of a method, inheriting the base declaration's phase
        when an override does not restate it."""
        for c in self.lineage(cls):
            if c.phase(name):
                return c.phase(name)
        return None

    def is_virtual(self, cls: str, name: str) -> bool:
        return any(name in c.methods and c.methods[name].virtual
                   for c in self.lineage(cls))

    def member(self, cls: str, name: str) -> tuple[Cls, Member] | None:
        for c in self.lineage(cls):
            if name in c.members:
                return c, c.members[name]
        return None

    def member_type(self, cls: str, name: str) -> str:
        found = self.member(cls, name)
        return found[1].type if found else ""

    def effective_phase(self, cls: str, method: Method) -> str:
        phase = self.declared_phase(cls, method.name)
        if phase:
            return phase
        if any("DR_PHASE_ASSERT_COMMIT()" in b.text for b in method.bodies):
            return "commit"
        return "serial"


# -- parsing ------------------------------------------------------------------


def add_member(c: Cls, text: str, rel: str, lineno: int) -> None:
    """Record "<type tokens> name [annotation] [= init];"."""
    body = text.rstrip(";").strip()
    annotation = None
    for tok, ann in ANNOTATIONS.items():
        if re.search(r"\b%s\b" % tok, body):
            annotation = ann
            body = re.sub(r"\b%s\b" % tok, " ", body)
    # Drop any initializer.
    body = re.split(r"(?<![=!<>+\-*/%&|^])=(?!=)", body, 1)[0]
    body = re.sub(r"\{[^{}]*\}\s*$", " ", body).strip()
    body = re.sub(r"\[[^\]]*\]\s*$", " ", body).strip()  # queue[2]
    idents = IDENT_RE.findall(strip_templates(body))
    if len(idents) < 2:
        return  # not "type name"
    name = idents[-1]
    c.members[name] = Member(annotation, body[:body.rfind(name)].strip(),
                             rel, lineno)


def add_method(c: Cls, text: str) -> Method | None:
    """Merge one method declaration (or inline definition head)."""
    flat = strip_templates(text)
    m = METHOD_NAME_RE.search(flat)
    if not m:
        return None
    name = m.group(1).replace(" ", "")
    if name == c.name or name in CONTROL_KEYWORDS:
        return None  # constructor/destructor, or not a declaration
    method = c.method(name)
    method.virtual |= bool(re.search(r"\bvirtual\b", flat))
    method.pure |= bool(re.search(r"=\s*0\s*;?\s*$", flat))
    method.phase = method.phase or phase_of(text)
    method.ret = method.ret or \
        DECL_KEYWORDS_RE.sub(" ", flat[:m.start()]).strip()
    return method


def parse(prog: Program, src: Source) -> None:
    """One brace-depth walk of a stripped file.

    Tracks a stack of open class scopes. Declarations at a class's
    immediate depth are members, or methods when followed by a parameter
    list; an inline method body is captured up to its closing brace.
    Out-of-line definitions follow the house style: `Class::name(` at
    column 0, body closed by a `}` line at column 0.
    """
    rel = src.rel
    depth = 0
    stack: list[tuple[Cls, int]] = []  # (class, member depth)
    pending: Cls | None = None  # class head seen, body not yet open
    head, head_line = "", 0
    decl, decl_line = "", 0  # declaration accumulating at member depth
    inline: tuple[Method, int, list] | None = None  # (method, depth, lines)
    outline: tuple[Method, list] | None = None

    def flush() -> Method | None:
        nonlocal decl
        text = decl.strip()
        decl = ""
        if not text or not stack:
            return None
        c = stack[-1][0]
        if "DR_DOMAIN_STAMP" in text:
            c.has_stamp = True
        elif "(" in strip_templates(text):
            return add_method(c, text)
        elif not ACCESS_RE.match(text) and not MEMBER_SKIP_RE.match(text):
            add_member(c, text, rel, decl_line)
        return None

    for lineno, line in enumerate(src.code, start=1):
        if outline is None:
            m = CPP_DEF_RE.match(line)
            if m:
                outline = (prog.cls(m.group(1)).method(m.group(2)), [])
        if outline is not None:
            outline[1].append((lineno, line))
            if line.rstrip() == "}":
                outline[0].bodies.append(Body(rel, outline[1]))
                outline = None
        if line.lstrip().startswith("#"):
            continue  # preprocessor conditionals inside class bodies
        # A class scope starts at "class/struct Name ... {" (but not an
        # enum class, whose body holds enumerators).
        if pending is None and inline is None:
            m = CLASS_HEAD_RE.search(line)
            if m and not re.search(r"\benum\s+$", line[:m.start() + 1]):
                pending = prog.cls(m.group(2))
                for tok, ann in ANNOTATIONS.items():
                    if tok in (m.group(1) or "") and \
                            pending.annotation is None:
                        pending.annotation = ann
                head, head_line = line[m.end():], lineno
        elif pending is not None:
            head += " " + line
        for ch in line:
            if inline is not None:
                method, body_depth, lines = inline
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if depth == body_depth:
                        method.bodies.append(Body(rel, lines))
                        inline = None
                        continue
                if not lines or lines[-1][0] != lineno:
                    lines.append((lineno, ""))
                lines[-1] = (lineno, lines[-1][1] + ch)
                continue
            at_member = bool(stack) and stack[-1][1] == depth
            if ch == "{":
                if pending is not None:
                    bases = strip_templates(head).split("{")[0]
                    if not bases.lstrip().startswith(":"):
                        bases = ":" + bases
                    for bm in BASES_RE.finditer(bases):
                        base = bm.group(1)
                        if base != pending.name:
                            if base not in pending.bases:
                                pending.bases.append(base)
                            prog.subclasses.setdefault(
                                base, set()).add(pending.name)
                    if pending.rel is None:
                        pending.rel, pending.line = rel, head_line
                    depth += 1
                    stack.append((pending, depth))
                    pending = None
                    head = decl = ""
                    continue
                if at_member and "(" in strip_templates(decl):
                    method = flush()  # inline method head ends here
                    if method is not None:
                        inline = (method, depth, [(lineno, "{")])
                        depth += 1
                        continue
                depth += 1
            elif ch == "}":
                if at_member:
                    flush()
                    stack.pop()
                depth = max(0, depth - 1)
            elif ch == ";":
                # A forward declaration ("class X;") never opens a brace.
                pending = None
                head = ""
                if at_member:
                    decl += ";"
                    flush()
            elif ch == ":" and at_member and \
                    decl.strip() in ("public", "private", "protected"):
                decl = ""
            elif at_member:
                if not decl.strip() and not ch.isspace():
                    decl_line = lineno
                decl += ch
        decl += " "


# -- determinism rules --------------------------------------------------------


def rmw_has_order(code: list[str], line_idx: int, open_idx: int) -> bool:
    """Whether the call whose '(' is at code[line_idx][open_idx] names a
    memory_order in its argument list (scans across wrapped lines)."""
    depth = 0
    idx, pos = line_idx, open_idx
    args = []
    while idx < len(code):
        line = code[idx]
        while pos < len(line):
            ch = line[pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return "memory_order" in "".join(args)
            args.append(ch)
            pos += 1
        args.append(" ")
        idx += 1
        pos = 0
    return "memory_order" in "".join(args)


def sibling_header(prog: Program, rel: str) -> Source | None:
    """Members are typically declared in x.hpp and iterated in x.cpp."""
    stem, ext = os.path.splitext(rel)
    if ext not in (".cpp", ".cc"):
        return None
    for hdr_ext in (".hpp", ".h"):
        if os.path.isfile(os.path.join(prog.root, stem + hdr_ext)):
            return prog.source(stem + hdr_ext)
    return None


def check_determinism(prog: Program, src: Source) -> None:
    rel, code = src.rel, src.code
    unordered = src.unordered
    hdr = sibling_header(prog, rel)
    if hdr is not None:
        unordered = unordered | hdr.unordered

    def add(lineno: int, rule: str) -> None:
        prog.report(rel, lineno, rule, src.lines[lineno - 1])

    for lineno, line in enumerate(code, start=1):
        if UNORDERED_DECL_RE.search(line):
            add(lineno, "unordered-container")
        for regex in (RANGE_FOR_RE, ITER_CALL_RE):
            for match in regex.finditer(line):
                if match.group(1) in unordered:
                    add(lineno, "unordered-iteration")
        if RAW_RANDOM_RE.search(line):
            add(lineno, "raw-random")
        if WALL_CLOCK_RE.search(line):
            add(lineno, "wall-clock")
        if POINTER_KEY_RE.search(line):
            add(lineno, "pointer-keyed-container")
        if rel.startswith(os.path.join("src", "noc")):
            for match in ATOMIC_RMW_RE.finditer(line):
                if not rmw_has_order(code, lineno - 1, match.end() - 1):
                    add(lineno, "atomic-rmw-order")


# -- per-body phase ownership rules -------------------------------------------


def scan_writes(line: str, member: str) -> bool:
    """Whether `line` writes through `member` (assignment, compound
    assignment, or ++/-- on the member or a field reached from it)."""
    for m in re.finditer(r"(?<![\w.>])%s\b" % re.escape(member), line):
        pre = line[:m.start()].rstrip()
        if pre.endswith("->"):
            continue
        if pre.endswith("++") or pre.endswith("--"):
            return True
        # Walk the access chain after the member: [..], .field
        i = m.end()
        n = len(line)
        while i < n:
            if line[i] == "[":
                bal = 1
                i += 1
                while i < n and bal:
                    if line[i] == "[":
                        bal += 1
                    elif line[i] == "]":
                        bal -= 1
                    i += 1
            elif line[i] == "." and i + 1 < n and \
                    (line[i + 1].isalpha() or line[i + 1] == "_"):
                i += 1
                while i < n and (line[i].isalnum() or line[i] == "_"):
                    i += 1
            elif line[i] == " ":
                i += 1
            else:
                break
        rest = line[i:]
        if rest.startswith("++") or rest.startswith("--"):
            return True
        for op in ASSIGN_OPS:
            if rest.startswith(op):
                if op == "=" and rest.startswith("=="):
                    break
                return True
    return False


def scan_mutating_call(line: str, member: str, deep: bool = False) -> bool:
    """Whether `line` calls a known-mutating method on `member`. With
    `deep`, also through a field chain: staged banks mutate two levels
    down (`perCore_[core].claims.push_back(...)`)."""
    chain = r"(?:\.[A-Za-z_]\w*)*\." if deep else r"(?:->|\.)"
    for m in re.finditer(
            r"(?<![\w.>])%s\b\s*(?:\[[^\]]*\]\s*)?%s\s*([A-Za-z_]\w*)\s*\("
            % (re.escape(member), chain), line):
        if m.group(1) in MUTATING_CALLS:
            return True
    return False


def binds_mutable(line: str, member: str) -> bool:
    """Whether `line` binds a non-const reference to `member` (or an
    element or field of it): every write through the alias is one."""
    for m in re.finditer(r"&\s*[A-Za-z_]\w*\s*=(?!=)\s*\*?\s*"
                         r"(?:this\s*->\s*)?%s\b" % re.escape(member),
                         line):
        if not re.search(r"\bconst\b", line[:m.start()]):
            return True
    return False


def writes(line: str, member: str) -> bool:
    return scan_writes(line, member) or scan_mutating_call(line, member)


def compute_writes(line: str, member: str) -> bool:
    """A write judged in a compute body: also through a field chain
    (`lists_[d].items.push_back(x)`) or a mutable reference."""
    return writes(line, member) or \
        scan_mutating_call(line, member, deep=True) or \
        binds_mutable(line, member)


def chain_targets(prog: Program, c: Cls, body: Body, base: str,
                  fields: list[str]) -> list[Cls]:
    """Classes a call on base.fields... may land on: the base is a
    member of `c` or a local `Type &base` / `Type *base` of the body,
    and each field resolves through the first known class holding it."""
    def known(type_text: str) -> list[Cls]:
        return [prog.classes[t] for t in IDENT_RE.findall(
            strip_templates(type_text)) if t in prog.classes]
    local = re.search(r"\b([A-Za-z_]\w*)\s*[&*]\s*%s\b" % re.escape(base),
                      body.text)
    type_text = c.members[base].type if base in c.members else \
        local.group(1) if local else ""
    for field in fields:
        holders = [k for k in known(type_text) if field in k.members]
        if not holders:
            return []
        type_text = holders[0].members[field].type
    return known(type_text)


def check_compute_body(prog: Program, c: Cls, body: Body) -> None:
    def add(lineno: int, rule: str, line: str) -> None:
        prog.report(body.rel, lineno, rule, line)

    # DR_SERIAL_ONLY callable members (std::function callbacks like the
    # cross-core locality oracle): invoking one mid-phase reads foreign
    # state the serial merge has not yet reconciled.
    serial_callables = [
        n for n, m in c.members.items()
        if c.classification(n) == "serial" and
        re.search(r"\bfunction\b", strip_templates(m.type))]

    stamped = sorted(n for n, k in prog.classes.items() if k.has_stamp)
    stamped_binding = bool(stamped) and bool(
        re.search(r"\b(?:%s)\s*&\s*\w+" % "|".join(stamped), body.text))
    # Flits and credits each have their own outgoing list.
    outgoing_push = {
        kind: re.search(r"\b%s\s*\.\s*push_back" % lst, body.text)
        for kind, lst in (("Arrival", "outgoing"),
                          ("Credit", "outgoingCredits"))}
    direct_router_mutation = {}

    for lineno, line in body.lines:
        # Writes and mutating calls on this class's members.
        for name, member in c.members.items():
            cls = c.classification(name)
            if cls == "domain" or not compute_writes(line, name):
                continue
            if cls == "serial":
                add(lineno, "compute-writes-serial", line)
            elif not TYPE_EXEMPT_RE.search(member.type):
                add(lineno, "compute-writes-unannotated", line)
        for name in serial_callables:
            if re.search(r"(?<![\w.>])%s\s*\(" % re.escape(name), line):
                add(lineno, "serial-call-in-compute", line)
        # Calls into commit-phase methods: own-class bare calls and calls
        # through a member or a local reference, field chains followed
        # through the declared types (`l1_.commitCycle(now)`).
        for m in BARE_CALL_RE.finditer(line):
            if c.phase(m.group(1)) == "commit":
                add(lineno, "compute-calls-commit", line)
        for m in CHAIN_CALL_RE.finditer(line):
            links = CHAIN_LINK_RE.findall(m.group(2))
            if any(t.phase(links[-1]) == "commit" for t in
                   chain_targets(prog, c, body, m.group(1), links[:-1])):
                add(lineno, "compute-calls-commit", line)
        # Direct arrival into a resolved foreign domain: a push into
        # its wheel or an apply on its router (the producer's outgoing
        # list for that kind is the legal alternative).
        for kind, apply in (("Arrival", "applyFlit"),
                            ("Credit", "applyCredit")):
            if re.search(r"\bschedule%s\s*\(\s*domains_\s*\[|"
                         r"\brouters_\s*\[[^\]]*\]\s*->\s*%s\s*\("
                         % (kind, apply), line):
                direct_router_mutation[kind] = (lineno, line)

    for kind, (lineno, line) in direct_router_mutation.items():
        if not outgoing_push[kind]:
            add(lineno, "cross-domain-commit", line)
    if stamped_binding and "DR_STAMP_WRITE(" not in body.text:
        add(body.lines[0][0], "missing-stamp-check", body.lines[0][1])


def check_drain_order(prog: Program, body: Body) -> None:
    """The merge files the outgoing lists by ascending producer."""
    for lineno, line in body.lines:
        if (DESCENDING_FOR_RE.search(line) or DESCENDING_IDX_RE.search(line)) \
                and re.search(r"\boutgoing\b", body.text):
            prog.report(body.rel, lineno, "spsc-drain-order", line)


def check_unannotated_state(prog: Program) -> None:
    for name in sorted(COVERED_CLASSES):
        c = prog.classes.get(name)
        if c is None or c.annotation:
            continue  # a class-level annotation covers every member
        for mname in sorted(c.members):
            member = c.members[mname]
            if c.classification(mname) or \
                    TYPE_EXEMPT_RE.search(member.type) or \
                    "&" in member.type or member.type.startswith("const "):
                continue
            prog.report(member.rel, member.line, "unannotated-state",
                        "%s::%s (%s)" % (name, mname, member.type))


# -- cross-TU reachability ----------------------------------------------------


class Taint:
    def __init__(self, rule: str, rel: str, line: int, text: str,
                 chain: list[str]):
        self.rule = rule
        self.rel = rel
        self.line = line
        self.text = text
        self.chain = chain


def family_targets(prog: Program, type_text: str,
                   callee: str) -> list[tuple[str, str]]:
    """(class, method) pairs a call on a receiver of `type_text` may
    dispatch to: the first known class named in the type, fanned out
    across its subclasses."""
    targets: list[tuple[str, str]] = []
    for tname in IDENT_RE.findall(strip_templates(type_text)):
        if tname not in prog.classes:
            continue
        for fam in prog.family(tname):
            if prog.find_method(fam, callee) and \
                    (fam, callee) not in targets:
                targets.append((fam, callee))
        if targets:
            break
    return targets


def body_edges(prog: Program, cls: str, body: Body):
    """Yield (lineno, line, targets, via_member) call edges of a body.
    `targets` is a list of (class, method); virtual receivers fan out
    across the family. `via_member` is the receiver member name, "g()"
    for a getter chain, None for bare same-class calls."""
    for lineno, line in body.lines:
        seen_spans = []
        for m in MEMBER_CALL_RE.finditer(line):
            base, callee = m.group(1), m.group(2)
            targets = family_targets(prog, prog.member_type(cls, base),
                                     callee)
            if targets:
                seen_spans.append((m.start(), m.end()))
                yield lineno, line, targets, base
        for m in GETTER_CALL_RE.finditer(line):
            getter, callee = m.group(1), m.group(2)
            found = prog.find_method(cls, getter)
            if not found:
                continue
            targets = family_targets(prog, found[1].ret, callee)
            if targets:
                yield lineno, line, targets, "%s()" % getter
        for m in BARE_CALL_RE.finditer(line):
            if any(s <= m.start() < e for s, e in seen_spans):
                continue
            callee = m.group(1)
            if callee in CONTROL_KEYWORDS or callee.startswith("DR_"):
                continue
            found = prog.find_method(cls, callee)
            if not found:
                continue
            if prog.is_virtual(cls, callee):
                targets = [(fam, callee) for fam in prog.family(found[0])
                           if prog.find_method(fam, callee)]
            else:
                targets = [(cls, callee)]
            yield lineno, line, targets, None


def edge_context(prog: Program, cls: str, via: str | None,
                 ctx: str) -> str:
    """Receiver-ownership context of a call edge. Reference/pointer
    members and getters alias foreign state (checked); by-value members
    of an owned aggregate are owned; a by-value member declared
    DR_DOMAIN_OWNED confers ownership even from a checked caller."""
    if via is None:
        return ctx
    if via.endswith("()"):
        return "checked"
    type_text = prog.member_type(cls, via)
    if "&" in type_text or "*" in type_text:
        return "checked"
    if ctx == "owned":
        return "owned"
    found = prog.member(cls, via)
    if found and found[0].classification(via) == "domain":
        return "owned"
    return "checked"


def summarize(prog: Program, cls: str, name: str, ctx: str,
              memo: dict, in_progress: set) -> list[Taint]:
    """Taints of an *inferred* compute-phase method (transitive)."""
    key = (cls, name, ctx)
    if key in memo:
        return memo[key]
    if key in in_progress:
        return []
    found = prog.find_method(cls, name)
    if not found:
        return []
    in_progress.add(key)
    c = prog.classes.get(cls)
    taints: list[Taint] = []
    label = "%s::%s" % (cls, name)
    # An inherited implementation is analyzed as-if on the derived
    # class (member resolution walks ancestors).
    for body in found[1].bodies:
        if ctx == "checked" and c is not None:
            for lineno, line in body.lines:
                if prog.allowed(body.rel, lineno, "phase-escape"):
                    continue
                for mname, member in c.members.items():
                    mcls = c.classification(mname)
                    if mcls == "domain" or \
                            not writes(line, mname) or \
                            TYPE_EXEMPT_RE.search(member.type):
                        continue
                    what = "serial" if mcls == "serial" else "unannotated"
                    taints.append(Taint(
                        "phase-escape", body.rel, lineno,
                        "%s writes %s member `%s`: %s"
                        % (label, what, mname, line.strip()), [label]))
        taints.extend(edge_taints(prog, cls, body, ctx, label, memo,
                                  in_progress))
    in_progress.discard(key)
    memo[key] = taints
    return taints


def edge_taints(prog: Program, cls: str, body: Body, ctx: str, label: str,
                memo: dict, in_progress: set) -> list[Taint]:
    taints: list[Taint] = []
    rel = body.rel
    for lineno, line, targets, via in body_edges(prog, cls, body):
        for tcls, tname in targets:
            found = prog.find_method(tcls, tname)
            if not found:
                continue
            method = found[1]
            phase = prog.effective_phase(tcls, method)
            if phase in ("compute", "read") or \
                    prog.allowed(rel, lineno, "phase-escape"):
                continue
            if phase == "commit":
                taints.append(Taint(
                    "phase-escape", rel, lineno,
                    "%s calls commit-phase %s::%s: %s"
                    % (label, tcls, tname, line.strip()), [label]))
                continue
            # Unannotated callee: virtual with no analyzable body is
            # unclassifiable; otherwise recurse as inferred compute. A
            # pure virtual is never invoked itself - the family fan-out
            # judges each concrete overrider.
            if not method.bodies:
                if not method.pure and prog.is_virtual(tcls, tname) and \
                        not prog.allowed(rel, lineno,
                                         "virtual-dispatch-unclassified"):
                    taints.append(Taint(
                        "virtual-dispatch-unclassified", rel, lineno,
                        "%s virtual call to %s::%s has no declared "
                        "phase and no analyzable body: %s"
                        % (label, tcls, tname, line.strip()), [label]))
                continue
            sub_ctx = edge_context(prog, cls, via, ctx)
            for t in summarize(prog, tcls, tname, sub_ctx, memo,
                               in_progress):
                taints.append(Taint(t.rule, t.rel, t.line, t.text,
                                    [label] + t.chain))
    return taints


def check_reachability(prog: Program) -> None:
    """Seed at every compute/endpoint-phase body, chase edges into
    unannotated methods, and report each surviving taint once."""
    memo: dict = {}
    seen: set = set()
    for cname in sorted(prog.classes):
        c = prog.classes[cname]
        for mname in sorted(c.methods):
            method = c.methods[mname]
            if prog.effective_phase(cname, method) != "compute":
                continue
            label = "%s::%s" % (cname, mname)
            for body in method.bodies:
                for t in edge_taints(prog, cname, body, "checked", label,
                                     memo, set()):
                    if (t.rel, t.line, t.rule) in seen:
                        continue
                    seen.add((t.rel, t.line, t.rule))
                    prog.report(t.rel, t.line, t.rule, "%s [via %s]"
                                % (t.text, " -> ".join(t.chain)))


# -- L1 confinement verdicts --------------------------------------------------


def normalize_index(expr: str) -> str:
    expr = CAST_RE.sub("", strip_templates(expr))
    return re.sub(r"[\s()]", "", expr)


def first_subscript(line: str, member: str) -> str | None:
    m = re.search(r"(?<![\w.>])%s\s*\[" % re.escape(member), line)
    if m is None:
        return None
    i = start = m.end()
    bal = 1
    while i < len(line) and bal:
        if line[i] == "[":
            bal += 1
        elif line[i] == "]":
            bal -= 1
        i += 1
    return line[start:i - 1]


def is_organizer(prog: Program, type_text: str) -> bool:
    """Whether a type names an L1Organizer (a nested organization):
    calls on such a member are delegation, not state mutation."""
    return any(t == "L1Organizer" or "L1Organizer" in prog.ancestors(t)
               for t in IDENT_RE.findall(strip_templates(type_text)))


class Verdict:
    def __init__(self, cls: str):
        self.cls = cls
        self.confined = True
        self.reasons: list[str] = []
        self.delegates: list[str] = []

    def fail(self, reason: str) -> None:
        self.confined = False
        self.reasons.append(reason)


def confine_class(prog: Program, cls: str, memo: dict) -> Verdict:
    if cls in memo:
        return memo[cls]
    verdict = Verdict(cls)
    memo[cls] = verdict  # coinductive: self-delegation assumes confined
    c = prog.classes.get(cls)
    if c is None:
        return verdict

    visited: set[str] = set()
    work = [m for m in ENTRY_METHODS if m in c.methods]
    while work:
        mname = work.pop()
        if mname in visited:
            continue
        visited.add(mname)
        method = c.methods.get(mname)
        for body in method.bodies if method else ():
            for lineno, line in body.lines:
                # Member mutations must be banked by the calling core.
                for member in c.members:
                    if not (writes(line, member) or
                            scan_mutating_call(line, member, deep=True)):
                        continue
                    if is_organizer(prog, prog.member_type(cls, member)):
                        continue  # delegation, judged by its verdict
                    sub = first_subscript(line, member)
                    where = "%s:%d" % (body.rel, lineno)
                    if sub is None:
                        verdict.fail("%s mutates `%s` without a per-core "
                                     "index (%s)" % (mname, member, where))
                    elif normalize_index(sub) != "core":
                        verdict.fail("%s mutates `%s` indexed by `%s`, "
                                     "not the calling core (%s)"
                                     % (mname, member, sub.strip(), where))
            # Same-class helpers join the entry set; delegated calls
            # into other L1 organizations require their verdicts.
            for lineno, _, targets, via in body_edges(prog, cls, body):
                for tcls, tname in targets:
                    if tcls == cls:
                        if via is None and tname not in visited:
                            work.append(tname)
                        continue
                    if "L1Organizer" in [tcls] + prog.ancestors(tcls):
                        if tcls not in verdict.delegates:
                            verdict.delegates.append(tcls)
                        if not confine_class(prog, tcls, memo).confined:
                            verdict.fail("delegates to unconfined %s "
                                         "(%s:%d)"
                                         % (tcls, body.rel, lineno))
    return verdict


def check_confinement(prog: Program) -> None:
    memo: dict = {}
    for cls in sorted(prog.family("L1Organizer")):
        if cls == "L1Organizer":
            continue  # the abstract interface itself
        v = prog.verdicts[cls] = confine_class(prog, cls, memo)
        c = prog.classes[cls]
        if not v.confined:
            prog.report(c.rel, c.line, "l1-unconfined",
                        "%s entry paths are not core-confined: %s"
                        % (cls, "; ".join(v.reasons)))


def print_verdicts(prog: Program) -> None:
    print("confinement verdicts (L1Organizer implementations):")
    print("  %-12s %-10s %s" % ("class", "verdict", "delegates"))
    for cls in sorted(prog.verdicts):
        v = prog.verdicts[cls]
        print("  %-12s %-10s %s"
              % (cls, "confined" if v.confined else "UNCONFINED",
                 ", ".join(v.delegates) or "-"))
        for reason in v.reasons:
            print("    - %s" % reason)


# -- command line -------------------------------------------------------------


def list_sources(root: str, paths: list[str]) -> list[str]:
    out = []
    for base in paths:
        full = os.path.join(root, base)
        if os.path.isfile(full):
            out.append(base)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames.sort()
            for fname in sorted(filenames):
                if fname.endswith(SOURCE_EXTS):
                    out.append(os.path.relpath(
                        os.path.join(dirpath, fname), root))
    return out


def scan(root: str, paths: list[str]) -> Program:
    prog = Program(root)
    scanned = [prog.source(rel) for rel in list_sources(root, paths)]
    for src in scanned:
        parse(prog, src)
    for src in scanned:
        check_determinism(prog, src)
        for lineno in sorted(src.allows):
            for name in sorted(src.allows[lineno] - set(RULES)):
                prog.findings.append(Finding(
                    src.rel, lineno, "unknown-allow",
                    "drlint-allow(%s) names no rule" % name))
    check_unannotated_state(prog)
    for cname in sorted(prog.classes):
        for method in prog.classes[cname].methods.values():
            for body in method.bodies:
                check_drain_order(prog, body)
                if prog.effective_phase(cname, method) == "compute":
                    check_compute_body(prog, prog.classes[cname], body)
    check_reachability(prog)
    check_confinement(prog)
    prog.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return prog


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="drlint", add_help=True)
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories relative to the "
                             "repository root (default: src tools)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of this "
                             "script)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-30s %s" % (rule, RULES[rule]))
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    prog = scan(root, args.paths or ["src", "tools"])
    print_verdicts(prog)
    for f in prog.findings:
        print("  " + str(f))
    if prog.findings:
        print("drlint: FAIL (%d findings)" % len(prog.findings))
        return 1
    print("drlint: clean (0 findings)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
