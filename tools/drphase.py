#!/usr/bin/env python3
"""drphase - phase/domain ownership checker for the parallel tick engine.

The deterministic parallel tick engine (DESIGN.md §11/§12) splits every
cycle into parallel compute phases and serial commit sections. Its
bit-identical guarantee rests on an ownership discipline that the
DR_* macros of src/common/ownership.hpp declare in the source:

  DR_DOMAIN_OWNED   state written in parallel phases only by its owning
                    domain's worker (serial code may also touch it)
  DR_SHARED_SPSC    single-producer/single-consumer staging crossed only
                    at the phase barrier
  DR_SERIAL_ONLY    state written only from serial sections; the
                    parallel phases may read it (frozen while they run)
  DR_COMPUTE_PHASE  method confined to a parallel phase
  DR_ENDPOINT_PHASE method confined to the endpoint compute phase
                    (DESIGN.md §13) — checked exactly like a compute
                    phase: endpoints may touch only domain-owned state
  DR_COMMIT_PHASE   method confined to serial sections (a body-level
                    DR_PHASE_ASSERT_COMMIT() classifies the same way)

This pass walks the annotated sources and enforces the discipline:

  compute-writes-serial       a compute-phase method writes (or calls a
                              mutating method on) DR_SERIAL_ONLY state
  compute-writes-unannotated  a compute-phase method writes a member
                              with no ownership classification
  compute-calls-commit        a compute-phase method calls a method
                              classified commit-phase
  unannotated-state           a mutable member of a tick-reachable class
                              carries no classification (and no exempt
                              type: atomics, mutexes, threads, the
                              barrier and the tick pool — their
                              synchronization is their own)
  cross-domain-commit         a compute-phase method resolves producer/
                              consumer domains and mutates another
                              domain's router directly without staging
                              into a DR_SHARED_SPSC buffer
  spsc-drain-order            an SPSC staging consumer drains producers
                              in descending order (the determinism
                              contract requires ascending)
  missing-stamp-check         a compute-phase method that takes or binds
                              a stamped structure (Ni&/Domain&) never
                              calls DR_STAMP_WRITE on one
  serial-call-in-compute      a compute/endpoint-phase method invokes a
                              DR_SERIAL_ONLY callable member (e.g. the
                              cross-core locality oracle) mid-phase;
                              stage the query and resolve it in the
                              serial merge instead

Works without libclang: the default pass is token-level, built on the
same stripped-source scanning as drlint. When ``--compile-commands``
points at a CMake-exported compile_commands.json *and* python's
clang.cindex bindings can load, an additional AST pass re-resolves
member writes inside compute-phase methods precisely (through aliases
and overloads) and reports anything the token pass missed; without the
bindings the option degrades to the token pass with a note.

Suppression: ``// drphase-allow(<rule>)`` on the offending line or in
the contiguous ``//`` comment block directly above it, exactly like
drlint-allow.

A checked-in JSON baseline (tools/drphase_baseline.json) records
accepted per-file/per-rule counts — kept at zero violations; the pass
fails when a count exceeds the baseline.

Usage:
  drphase.py [--baseline FILE] [--update-baseline] [--list-rules]
             [--compile-commands FILE] [paths]

Exits 0 when clean against the baseline, 1 on new findings, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

RULES = {
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
        "compute-phase method mutates a foreign domain's router without "
        "SPSC staging",
    "spsc-drain-order":
        "SPSC staging drained in descending producer order",
    "missing-stamp-check":
        "compute-phase method binds a stamped structure but never calls "
        "DR_STAMP_WRITE",
    "serial-call-in-compute":
        "compute/endpoint-phase method invokes a DR_SERIAL_ONLY callable "
        "member mid-phase instead of staging the query",
}

# Classes whose mutable members are reachable from Network::tick() (or
# pre-annotated for the ROADMAP's endpoint partitioning) and therefore
# must carry an ownership classification. Nested structs inherit a
# class-level DR_DOMAIN_OWNED from their enclosing class.
COVERED_CLASSES = {
    "Network", "Router", "PacketPool", "SpinBarrier", "TickPool",
    "ActiveSet",
    "Ni", "Domain",
    "SmCore", "CpuNode", "MemNode", "EndpointEngine",
    "GpuCoherence", "MesiDirectory", "CtaScheduler",
    "PrivateL1", "SharedL1", "DynEbL1", "DramChannel",
}

# Member types that synchronize themselves (or are immutable): no
# phase classification required.
TYPE_EXEMPT_RE = re.compile(
    r"std\s*::\s*(?:atomic|mutex|condition_variable|thread|function)\b"
    r"|\b(?:SpinBarrier|TickPool)\b")

ANNOTATIONS = ("DR_DOMAIN_OWNED", "DR_SHARED_SPSC", "DR_SERIAL_ONLY")
ANNOTATION_CLASS = {
    "DR_DOMAIN_OWNED": "domain",
    "DR_SHARED_SPSC": "spsc",
    "DR_SERIAL_ONLY": "serial",
}
METHOD_PHASES = ("DR_COMPUTE_PHASE", "DR_ENDPOINT_PHASE",
                 "DR_COMMIT_PHASE", "DR_PHASE_UNCHECKED",
                 "DR_PHASE_READ")

# Method names that mutate their object. Token-level stand-in for
# const-ness: calling one of these on serial/unannotated state from a
# compute method is a write.
MUTATING_CALLS = {
    "push_back", "emplace_back", "push_front", "pop_back", "pop_front",
    "clear", "insert", "erase", "resize", "reserve", "reset", "sample",
    "add", "release", "alloc", "acceptFlit", "acceptCredit", "tick",
    "wakeEjectSpace", "sweep", "setDomain", "resetStats", "onDelivered",
    "flush", "access", "evict", "next",
}

ALLOW_RE = re.compile(r"drphase-allow\(([a-z-]+)\)")
ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=",
              "<<=", ">>=")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
CPP_DEF_RE = re.compile(r"^([A-Za-z_]\w*)::(~?\w+)\s*\(")
DESCENDING_FOR_RE = re.compile(
    r"for\s*\([^;]*;\s*\w+\s*>=?\s*0\s*;\s*(?:--\s*\w+|\w+\s*--)")
DESCENDING_IDX_RE = re.compile(r"\w+\s*-\s*1\s*-\s*\w+")


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
    """Lines with comments and string/char literals blanked (drlint's
    state machine, so block comments and quoted braces are handled)."""
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


def collect_allows(lines: list[str]) -> dict[int, set[str]]:
    allows: dict[int, set[str]] = {}
    for lineno, raw in enumerate(lines, start=1):
        for match in ALLOW_RE.finditer(raw):
            allows.setdefault(lineno, set()).add(match.group(1))
    return allows


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


class ClassModel:
    def __init__(self, name: str, class_annotation: str | None):
        self.name = name
        self.class_annotation = class_annotation  # "domain"/"spsc"/...
        self.members: dict[str, str] = {}  # name -> classification
        self.member_lines: dict[str, tuple[str, int]] = {}
        self.member_types: dict[str, str] = {}
        self.methods: dict[str, str] = {}  # name -> phase
        self.has_stamp = False

    def classification(self, member: str) -> str | None:
        cls = self.members.get(member)
        if cls in ("domain", "spsc", "serial"):
            return cls
        if member in self.members and self.class_annotation:
            return self.class_annotation
        return None


CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+((?:DR_\w+\s+)*)(?:alignas\s*\([^)]*\)\s*)?"
    r"([A-Za-z_]\w*)")
ACCESS_RE = re.compile(r"^\s*(?:public|private|protected)\s*:")
MEMBER_SKIP_RE = re.compile(
    r"^\s*(?:using|typedef|friend|static|enum|return|if|for|while|"
    r"switch|case|default|break|continue|template|virtual|explicit|"
    r"class|struct|union|#|namespace|DR_DOMAIN_STAMP)\b")


def parse_classes(code: list[str], rel: str,
                  models: dict[str, ClassModel]) -> None:
    """Populate per-class member/method models from stripped code.

    Tracks brace depth with a stack of open class scopes; members are
    the declarations at a class's immediate depth, methods are names
    followed by a parameter list, with trailing DR_* phase tokens.
    """
    depth = 0
    # stack of (model, member_depth)
    stack: list[tuple[ClassModel, int]] = []
    pending: ClassModel | None = None
    decl = ""  # accumulating member/method declaration text
    decl_line = 0

    def flush_decl() -> None:
        nonlocal decl
        text, lineno = decl.strip(), decl_line
        decl = ""
        if not text or not stack:
            return
        model, _ = stack[-1]
        if "DR_DOMAIN_STAMP" in text:
            model.has_stamp = True
            return
        if ACCESS_RE.match(text) or MEMBER_SKIP_RE.match(text):
            return
        flat = strip_templates(text)
        if "(" in flat:
            # Method declaration (or inline definition head): record the
            # phase from trailing DR_* tokens.
            m = re.search(r"([A-Za-z_]\w*|operator\s*\[\s*\])\s*\(", flat)
            if not m:
                return
            name = m.group(1).replace(" ", "")
            phase = None
            close = flat.find(")", m.end())
            tail = flat[close + 1:] if close >= 0 else ""
            for tok in METHOD_PHASES:
                if re.search(r"\b%s\b" % tok, tail) or \
                        re.search(r"\b%s\b" % tok, text[len(flat):] if
                                  len(text) > len(flat) else ""):
                    phase = tok
                    break
            if phase in ("DR_COMPUTE_PHASE", "DR_ENDPOINT_PHASE"):
                # Endpoint-phase methods run inside the parallel
                # endpoint compute phase and obey compute rules.
                model.methods[name] = "compute"
            elif phase == "DR_COMMIT_PHASE":
                model.methods[name] = "commit"
            elif phase == "DR_PHASE_UNCHECKED":
                # Unchecked wins over compute for the same declaration.
                model.methods[name] = "unchecked"
            elif phase == "DR_PHASE_READ":
                model.methods[name] = "read"
            if phase in ("DR_COMPUTE_PHASE", "DR_ENDPOINT_PHASE") and \
                    "DR_PHASE_UNCHECKED" in text:
                model.methods[name] = "unchecked"
            return
        # Member declaration: "<type tokens> name [annotation] [= init];"
        body = text.rstrip(";").strip()
        if not body:
            return
        annotation = None
        for tok in ANNOTATIONS:
            if re.search(r"\b%s\b" % tok, body):
                annotation = ANNOTATION_CLASS[tok]
                body = re.sub(r"\b%s\b" % tok, " ", body)
        # Drop any initializer.
        body = re.split(r"(?<![=!<>+\-*/%&|^])=(?!=)", body, 1)[0]
        body = re.sub(r"\{[^{}]*\}\s*$", " ", body).strip()
        body = re.sub(r"\[[^\]]*\]\s*$", " ", body).strip()  # queue[2]
        idents = IDENT_RE.findall(strip_templates(body))
        if len(idents) < 2:
            return  # not "type name"
        name = idents[-1]
        type_text = body[:body.rfind(name)]
        model.members[name] = annotation or "none"
        model.member_lines[name] = (rel, lineno)
        model.member_types[name] = type_text.strip()

    for lineno, line in enumerate(code, start=1):
        if line.lstrip().startswith("#"):
            continue  # preprocessor conditionals inside class bodies
        # Start a class scope when "class/struct Name ... {" appears
        # (but not an enum class, whose body holds enumerators).
        if pending is None:
            m = CLASS_HEAD_RE.search(line)
            if m and not re.search(r"\benum\s+$",
                                   line[:m.start() + 1]):
                anns = m.group(1) or ""
                annotation = None
                for tok in ANNOTATIONS:
                    if tok in anns:
                        annotation = ANNOTATION_CLASS[tok]
                name = m.group(2)
                pending = models.setdefault(name,
                                            ClassModel(name, annotation))
                if annotation and pending.class_annotation is None:
                    pending.class_annotation = annotation
        for ch in line:
            at_member_depth = bool(stack) and stack[-1][1] == depth
            if ch == "{":
                if pending is not None:
                    depth += 1
                    stack.append((pending, depth))
                    pending = None
                    decl = ""
                    continue
                if at_member_depth and "(" in strip_templates(decl):
                    flush_decl()  # inline method head ends here
                depth += 1
            elif ch == "}":
                if at_member_depth:
                    flush_decl()
                    stack.pop()
                depth = max(0, depth - 1)
            elif ch == ";":
                # A forward declaration ("class X;") never opens a brace.
                pending = None
                if at_member_depth:
                    decl += ";"
                    flush_decl()
            elif ch == ":" and at_member_depth and \
                    decl.strip() in ("public", "private", "protected"):
                decl = ""
            elif at_member_depth:
                if not decl.strip() and not ch.isspace():
                    decl_line = lineno
                decl += ch
        decl += " "


class MethodBody:
    def __init__(self, rel: str, cls: str, name: str, start: int,
                 lines: list[str], raw: list[str]):
        self.rel = rel
        self.cls = cls
        self.name = name
        self.start = start  # 1-based line of the signature
        self.lines = lines  # stripped body lines (including signature)
        self.raw = raw
        self.text = "\n".join(lines)


def extract_cpp_methods(code: list[str], raw: list[str],
                        rel: str) -> list[MethodBody]:
    """Method definitions in house style: 'Class::name(' at line start,
    body delimited by a '{' line and a '}' line at column 0."""
    out = []
    i = 0
    n = len(code)
    while i < n:
        m = CPP_DEF_RE.match(code[i])
        if not m:
            i += 1
            continue
        cls, name = m.group(1), m.group(2)
        start = i + 1
        j = i
        while j < n and not code[j].startswith("{"):
            j += 1
        k = j
        while k < n and code[k].rstrip() != "}":
            k += 1
        out.append(MethodBody(rel, cls, name, start,
                              code[i:k + 1], raw[i:k + 1]))
        i = k + 1
    return out


def method_phase(models: dict[str, ClassModel], cls: str, name: str,
                 body_text: str) -> str:
    model = models.get(cls)
    declared = model.methods.get(name) if model else None
    if declared == "unchecked":
        return "unchecked"
    if "DR_PHASE_UNCHECKED" in body_text:
        return "unchecked"
    if declared == "compute":
        return "compute"
    if declared == "commit" or "DR_PHASE_ASSERT_COMMIT()" in body_text:
        return "commit"
    if declared == "read":
        return "read"
    return "serial"


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


def scan_mutating_call(line: str, member: str) -> bool:
    """Whether `line` calls a known-mutating method on `member`."""
    for m in re.finditer(
            r"(?<![\w.>])%s\b\s*(?:\[[^\]]*\]\s*)?(?:->|\.)\s*"
            r"([A-Za-z_]\w*)\s*\(" % re.escape(member), line):
        if m.group(1) in MUTATING_CALLS:
            return True
    return False


def check_compute_body(body: MethodBody, models: dict[str, ClassModel],
                       add) -> None:
    model = models.get(body.cls)
    if model is None:
        return
    spsc_members = [n for n, _ in model.members.items()
                    if model.classification(n) == "spsc"]
    # DR_SERIAL_ONLY callable members (std::function callbacks like the
    # cross-core locality oracle): invoking one mid-phase reads foreign
    # state the serial merge has not yet reconciled.
    serial_callables = [
        n for n in model.members
        if model.classification(n) == "serial" and
        re.search(r"\bfunction\b",
                  strip_templates(model.member_types.get(n, "")))]

    stamped_binding = bool(
        re.search(r"\b(?:Ni|Domain)\s*&\s*\w+", body.text))
    has_stamp_write = "DR_STAMP_WRITE(" in body.text

    uses_domain_map = bool(re.search(r"\b(?:router|node)Domain_\s*\[",
                                     body.text))
    direct_router_mutation_line = None
    spsc_push = any(re.search(r"\b%s\b[^;]*push_back" % re.escape(n),
                              body.text) for n in spsc_members)

    for off, line in enumerate(body.lines):
        lineno = body.start + off
        # Writes and mutating calls on this class's members.
        for member in model.members:
            cls = model.classification(member)
            wrote = scan_writes(line, member) or \
                scan_mutating_call(line, member)
            if not wrote:
                continue
            if cls in ("domain", "spsc"):
                continue
            if cls == "serial":
                add(lineno, "compute-writes-serial", line)
            else:
                type_text = model.member_types.get(member, "")
                if TYPE_EXEMPT_RE.search(type_text):
                    continue
                add(lineno, "compute-writes-unannotated", line)
        # Direct invocation of a serial-only callable member.
        for member in serial_callables:
            if re.search(r"(?<![\w.>])%s\s*\(" % re.escape(member), line):
                add(lineno, "serial-call-in-compute", line)
        # Calls into commit-phase methods: own-class bare calls and
        # member-object calls resolved through the declared member type.
        for m in re.finditer(r"(?<![\w.>:])([A-Za-z_]\w*)\s*\(", line):
            callee = m.group(1)
            if model.methods.get(callee) == "commit":
                add(lineno, "compute-calls-commit", line)
        for m in re.finditer(
                r"(?<![\w.>])([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?"
                r"(?:->|\.)\s*([A-Za-z_]\w*)\s*\(", line):
            base, callee = m.group(1), m.group(2)
            type_text = model.member_types.get(base)
            if not type_text:
                continue
            for tname in IDENT_RE.findall(strip_templates(type_text)):
                target = models.get(tname)
                if target and target.methods.get(callee) == "commit":
                    add(lineno, "compute-calls-commit", line)
                    break
        # Direct mutation of a router owned by a resolved foreign
        # domain (the staged path is the legal alternative).
        if re.search(r"\brouters_\s*\[[^\]]*\]\s*->\s*"
                     r"(?:acceptFlit|acceptCredit)\s*\(", line):
            direct_router_mutation_line = (lineno, line)
        # Descending drain of SPSC staging.
        if spsc_members and (DESCENDING_FOR_RE.search(line) or
                             DESCENDING_IDX_RE.search(line)):
            if any(re.search(r"\b%s\b" % re.escape(n), body.text)
                   for n in spsc_members):
                add(lineno, "spsc-drain-order", line)

    if uses_domain_map and direct_router_mutation_line and not spsc_push:
        lineno, line = direct_router_mutation_line
        add(lineno, "cross-domain-commit", line)

    if stamped_binding and not has_stamp_write:
        add(body.start, "missing-stamp-check", body.lines[0])


def check_unannotated_state(models: dict[str, ClassModel], add) -> None:
    for name in sorted(COVERED_CLASSES):
        model = models.get(name)
        if model is None:
            continue
        if model.class_annotation:
            continue  # class-level annotation covers every member
        for member in sorted(model.members):
            if model.classification(member):
                continue
            type_text = model.member_types.get(member, "")
            if TYPE_EXEMPT_RE.search(type_text):
                continue
            if "&" in type_text or type_text.startswith("const "):
                continue
            rel, lineno = model.member_lines[member]
            add_path = add(rel)
            add_path(lineno, "unannotated-state",
                     "%s::%s (%s)" % (name, member, type_text.strip()))


def list_sources(root: str, paths: list[str]) -> list[tuple[str, str]]:
    out = []
    for base in paths:
        full = os.path.join(root, base)
        if os.path.isfile(full):
            out.append((full, base))
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames.sort()
            for fname in sorted(filenames):
                if not fname.endswith((".hpp", ".cpp", ".h", ".cc")):
                    continue
                fpath = os.path.join(dirpath, fname)
                out.append((fpath, os.path.relpath(fpath, root)))
    return out


def scan(root: str, paths: list[str]) -> list[Finding]:
    sources = list_sources(root, paths)
    models: dict[str, ClassModel] = {}
    file_lines: dict[str, list[str]] = {}
    file_code: dict[str, list[str]] = {}
    for fpath, rel in sources:
        with open(fpath, encoding="utf-8", errors="replace") as fh:
            lines = fh.read().splitlines()
        file_lines[rel] = lines
        file_code[rel] = strip_code(lines)
        parse_classes(file_code[rel], rel, models)

    findings: list[Finding] = []

    def adder(rel: str):
        lines = file_lines.get(rel, [])
        allows = collect_allows(lines)

        def allowed(lineno: int, rule: str) -> bool:
            if rule in allows.get(lineno, set()):
                return True
            probe = lineno - 1
            while probe >= 1 and \
                    lines[probe - 1].lstrip().startswith("//"):
                if rule in allows.get(probe, set()):
                    return True
                probe -= 1
            return False

        def add(lineno: int, rule: str, text: str) -> None:
            if allowed(lineno, rule):
                return
            findings.append(Finding(rel, lineno, rule, text))

        return add

    check_unannotated_state(models, adder)

    for fpath, rel in sources:
        add = adder(rel)
        for body in extract_cpp_methods(file_code[rel],
                                        file_lines[rel], rel):
            phase = method_phase(models, body.cls, body.name, body.text)
            if phase == "compute":
                check_compute_body(body, models, add)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def ast_augment(root: str, paths: list[str], compile_commands: str,
                findings: list[Finding]) -> bool:
    """AST-accurate member-write resolution via libclang, when the
    python bindings are importable. Re-resolves writes inside
    compute-phase methods through aliases the token pass cannot follow
    and appends anything new to `findings`. Returns whether it ran."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        print("drphase: note: clang.cindex not importable; "
              "--compile-commands degraded to the token-level pass")
        return False
    try:
        ccdir = os.path.dirname(os.path.abspath(compile_commands))
        db = cindex.CompilationDatabase.fromDirectory(ccdir)
        index = cindex.Index.create()
    except Exception as exc:  # pragma: no cover - environment-specific
        print("drphase: note: libclang unavailable (%s); token-level "
              "results stand" % exc)
        return False

    serial_members: set[str] = set()
    compute_methods: set[str] = set()
    for fpath, rel in list_sources(root, paths):
        with open(fpath, encoding="utf-8", errors="replace") as fh:
            code = strip_code(fh.read().splitlines())
        models: dict[str, ClassModel] = {}
        parse_classes(code, rel, models)
        for model in models.values():
            for member in model.members:
                if model.classification(member) == "serial":
                    serial_members.add("%s::%s" % (model.name, member))
            for name, phase in model.methods.items():
                if phase == "compute":
                    compute_methods.add("%s::%s" % (model.name, name))

    seen = {(f.path, f.line, f.rule) for f in findings}
    for cmd in db.getAllCompileCommands() or []:
        src = cmd.filename
        rel = os.path.relpath(src, root)
        if not rel.startswith("src"):
            continue
        args = [a for a in list(cmd.arguments)[1:-1]]
        try:
            tu = index.parse(src, args=args)
        except Exception:
            continue

        def qual(cursor) -> str:
            parent = cursor.semantic_parent
            pname = parent.spelling if parent is not None else ""
            return "%s::%s" % (pname, cursor.spelling)

        def walk(node, in_compute):
            kind = node.kind
            if kind == cindex.CursorKind.CXX_METHOD:
                in_compute = qual(node) in compute_methods
            if in_compute and kind in (
                    cindex.CursorKind.BINARY_OPERATOR,
                    cindex.CursorKind.COMPOUND_ASSIGNMENT_OPERATOR,
                    cindex.CursorKind.UNARY_OPERATOR):
                for child in node.get_children():
                    if child.kind == cindex.CursorKind.MEMBER_REF_EXPR:
                        ref = child.referenced
                        if ref is not None and \
                                qual(ref) in serial_members:
                            loc = child.location
                            key = (rel, loc.line,
                                   "compute-writes-serial")
                            if key not in seen:
                                seen.add(key)
                                findings.append(Finding(
                                    rel, loc.line,
                                    "compute-writes-serial",
                                    "(AST) write to %s" %
                                    ref.spelling))
                    break  # LHS only
            for child in node.get_children():
                walk(child, in_compute)

        walk(tu.cursor, False)
    return True


def counts_of(findings: list[Finding]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for f in findings:
        key = "%s:%s" % (f.path, f.rule)
        counts[key] = counts.get(key, 0) + 1
    return counts


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="drphase", add_help=True)
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories relative to the "
                             "repository root (default: src)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of this "
                             "script)")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON (default: "
                             "tools/drphase_baseline.json)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline with current counts")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json for the AST-accurate "
                             "libclang pass (degrades gracefully when "
                             "the bindings are missing)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-28s %s" % (rule, RULES[rule]))
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    paths = args.paths or ["src"]
    baseline_path = args.baseline or os.path.join(
        root, "tools", "drphase_baseline.json")

    findings = scan(root, paths)
    if args.compile_commands:
        ast_augment(root, paths, args.compile_commands, findings)
        findings.sort(key=lambda f: (f.path, f.line, f.rule))
    counts = counts_of(findings)

    if args.update_baseline:
        with open(baseline_path, "w", encoding="utf-8") as fh:
            json.dump(counts, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("drphase: baseline updated (%d findings in %d buckets)"
              % (len(findings), len(counts)))
        return 0

    baseline: dict[str, int] = {}
    if os.path.exists(baseline_path):
        with open(baseline_path, encoding="utf-8") as fh:
            baseline = json.load(fh)

    failed = False
    for key in sorted(counts):
        extra = counts[key] - baseline.get(key, 0)
        if extra <= 0:
            continue
        failed = True
        path, rule = key.rsplit(":", 1)
        print("drphase: %d new finding(s) of [%s] in %s:"
              % (extra, rule, path))
        for f in findings:
            if f.path == path and f.rule == rule:
                print("  " + str(f))
    stale = {k: v for k, v in baseline.items()
             if counts.get(k, 0) < v}
    if stale:
        print("drphase: note: %d baseline bucket(s) now below their "
              "recorded count; run --update-baseline to ratchet down"
              % len(stale))

    if failed:
        print("drphase: FAIL (%d findings, baseline allows %d)"
              % (len(findings), sum(baseline.values())))
        return 1
    print("drphase: clean (%d findings, all within baseline)"
          % len(findings))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
