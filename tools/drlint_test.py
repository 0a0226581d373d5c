#!/usr/bin/env python3
"""Self-test for drlint.py (stdlib unittest).

The cases fall into three rule families, each its own ctest:
determinism rules and the CLI (drlint_selftest), per-body phase
ownership (drphase_selftest) and cross-TU reachability with the L1
confinement verdicts (drreach_selftest).

Rule tests lint small synthetic trees. The heart of the file is the
seeded-mutant matrix: each mutant copies the *real* src/ into a temp
root, applies one violation as a textual patch (mutants need not
compile: the analyzer is token-level), and asserts the expected rule
fires at the expected file. Anchor strings are asserted present first,
so a refactor that would silently neuter a mutant fails loudly instead.
Together with tests/noc/test_phase_ownership.cpp, which injects the
runtime counterparts into a DR_CHECKED build, this pins the ownership
checking from both sides: the static pass and the stamp machinery must
each catch their half of the matrix.

Run directly (`python3 tools/drlint_test.py [--group NAME]`; all groups
by default) or via ctest.
"""

import argparse
import contextlib
import io
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import drlint  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NETWORK_CPP = "src/noc/network.cpp"
NETWORK_HPP = "src/noc/network.hpp"
COHERENCE = "src/coherence/gpu_coherence.hpp"
SM_CORE = "src/gpu/sm_core.cpp"
SHARED_CPP = "src/gpu/shared_l1.cpp"
SHARED_HPP = "src/gpu/shared_l1.hpp"
L1_IFACE = "src/gpu/l1_cache.hpp"
HETERO_CPP = "src/core/hetero_system.cpp"
HETERO_HPP = "src/core/hetero_system.hpp"

# Anchor lines in the live tree (asserted before patching).
EJECT_STAMP = "    DR_STAMP_WRITE(ni);\n    if (!ni.ejDue)\n        return;"
INJECT_COUNT = "    ++d.packetsInjected;"
FLUSHES_GETTER = ("    const Counter &flushes() const DR_PHASE_READ "
                  "{ return flushes_; }")
FILL_CALL = "    l1_.fill(coreIdx_, line);"
CONTAINS_HEAD = ("SharedL1::contains(int core, Addr lineAddr) const\n"
                 "{\n"
                 "    const int cluster = clusterOf(core);")
CLAIMS_PUSH = ("    perCore_[core].claims.push_back("
               "slotOf(cluster, slice));")
CONTAINS_PURE = ("    virtual bool contains(int core, Addr lineAddr) "
                 "const = 0;")

# An endpoint-phase SmCore body calls a helper in another TU whose body
# writes a DR_SERIAL_ONLY member.
TOUCH_EPOCH = [
    (COHERENCE, FLUSHES_GETTER, FLUSHES_GETTER +
     "\n\n    void touchEpoch(int gpuCoreIdx)"
     " { epochs_[gpuCoreIdx] = 0; }"),
    (SM_CORE, FILL_CALL, FILL_CALL +
     "\n    coherence_.touchEpoch(coreIdx_);"),
]


def rules_in(findings):
    return sorted({f.rule for f in findings})


def write_files(root, files):
    for rel, content in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)


def lint_files(files):
    """Findings of a temp tree holding exactly `files`."""
    with tempfile.TemporaryDirectory() as tmp:
        write_files(tmp, files)
        return drlint.scan(tmp, ["src"]).findings


def apply_patches(root, patches):
    """Each patch is (rel, old, new); `old` must exist verbatim."""
    for rel, old, new in patches:
        path = os.path.join(root, rel)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert old in text, "mutant anchor drifted in %s: %r" % (rel, old)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new, 1))


def scan_mutated(patches):
    """The real src/ with `patches` applied. The analyzer chases edges
    across the whole of src/, so the copy is complete: a partial tree
    could miss the annotation that keeps a chain clean."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(REPO, "src"),
                        os.path.join(tmp, "src"))
        apply_patches(tmp, patches)
        return drlint.scan(tmp, ["src"])


def run_main(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = drlint.main(args)
    return code, out.getvalue()


class StripCodeTest(unittest.TestCase):
    def test_line_comment_removed(self):
        self.assertEqual(drlint.strip_code(["int x; // rand()"]),
                         ["int x; "])

    def test_block_comment_spans_lines(self):
        code = drlint.strip_code(["a /* rand()", "still comment", "*/ b"])
        self.assertEqual(code, ["a ", "", " b"])

    def test_string_literal_blanked(self):
        self.assertEqual(drlint.strip_code(['call("rand()");']),
                         ['call("");'])
        self.assertEqual(drlint.strip_code(['panic("x = ");']),
                         ['panic("");'])

    def test_quote_inside_comment_ignored(self):
        code = drlint.strip_code(["x; // don't crash", "y;"])
        self.assertEqual(code, ["x; ", "y;"])


class RuleTest(unittest.TestCase):
    def test_unordered_container_flagged(self):
        findings = lint_files({
            "src/a.hpp": "std::unordered_map<int, int> m_;\n"})
        self.assertEqual(rules_in(findings), ["unordered-container"])

    def test_unordered_iteration_flagged(self):
        src = ("// drlint-allow(unordered-container)\n"
               "std::unordered_set<int> s_;\n"
               "void f() { for (int v : s_) use(v); }\n"
               "void g() { std::sort(s_.begin(), s_.end()); }\n")
        findings = lint_files({"src/a.hpp": src})
        self.assertEqual(rules_in(findings), ["unordered-iteration"])
        self.assertEqual(len(findings), 2)

    def test_iteration_found_via_sibling_header(self):
        hdr = ("// drlint-allow(unordered-container)\n"
               "std::unordered_map<int, int> map_;\n")
        src = ("#include \"a.hpp\"\n"
               "void f() { for (auto &kv : map_) use(kv); }\n")
        findings = lint_files({"src/a.hpp": hdr, "src/a.cpp": src})
        self.assertEqual(rules_in(findings), ["unordered-iteration"])

    def test_find_end_comparison_not_iteration(self):
        src = ("// drlint-allow(unordered-container)\n"
               "std::unordered_map<int, int> m_;\n"
               "bool f() { return m_.find(3) != m_.end(); }\n")
        self.assertEqual(lint_files({"src/a.hpp": src}), [])

    def test_raw_random_flagged(self):
        findings = lint_files({
            "src/a.cpp": "int x = rand();\nstd::mt19937 gen;\n"})
        self.assertEqual(rules_in(findings), ["raw-random"])
        self.assertEqual(len(findings), 2)

    def test_qualified_c_library_calls(self):
        lines = {
            "int x = std::rand();": "raw-random",
            "std::srand(1);": "raw-random",
            "auto t = std::time(nullptr);": "wall-clock",
            "auto c = std::clock();": "wall-clock",
            "::gettimeofday(&tv, 0);": "wall-clock",
            "auto t = sim::time(now);": None,  # another namespace
        }
        for line, rule in lines.items():
            with self.subTest(line=line):
                findings = lint_files({"src/a.cpp": line + "\n"})
                self.assertEqual(rules_in(findings), [rule] if rule else [])

    def test_rng_wrapper_exempt(self):
        rel = os.path.join("src", "common", "rng.hpp")
        self.assertEqual(
            lint_files({rel: "std::mt19937 seed_expander;\n"}), [])

    def test_wall_clock_flagged(self):
        findings = lint_files({
            "src/a.cpp": "auto t = std::chrono::steady_clock::now();\n"})
        self.assertEqual(rules_in(findings), ["wall-clock"])

    def test_pointer_keyed_container_flagged(self):
        findings = lint_files({
            "src/a.hpp": "std::map<Node *, int> order_;\n"})
        self.assertEqual(rules_in(findings), ["pointer-keyed-container"])

    def test_random_in_comment_or_string_ignored(self):
        self.assertEqual(lint_files({
            "src/a.cpp": "// rand() here\nlog(\"rand()\");\n"}), [])

    def test_default_seqcst_rmw_in_noc_flagged(self):
        findings = lint_files({"src/noc/a.cpp": "epoch_.fetch_add(1);\n"})
        self.assertEqual(rules_in(findings), ["atomic-rmw-order"])

    def test_explicit_order_rmw_passes(self):
        self.assertEqual(lint_files({
            "src/noc/a.cpp":
                "epoch_.fetch_add(1, std::memory_order_release);\n"
                "ok_.compare_exchange_strong(\n"
                "    e, d, std::memory_order_acq_rel,\n"
                "    std::memory_order_acquire);\n"}), [])

    def test_wrapped_rmw_arguments_scanned_across_lines(self):
        findings = lint_files({
            "src/noc/a.cpp": "gen_.exchange(\n    next);\n"})
        self.assertEqual(rules_in(findings), ["atomic-rmw-order"])

    def test_rmw_rule_scoped_to_noc(self):
        self.assertEqual(
            lint_files({"src/mem/a.cpp": "epoch_.fetch_add(1);\n"}), [])


class SuppressionTest(unittest.TestCase):
    def test_same_line_allow(self):
        self.assertEqual(lint_files({
            "src/a.hpp": "std::unordered_map<int, int> m_;  "
                         "// drlint-allow(unordered-container)\n"}), [])

    def test_comment_block_above_allows(self):
        src = ("// drlint-allow(unordered-container): lookup only,\n"
               "// with a longer justification on a second line.\n"
               "std::unordered_map<int, int> m_;\n")
        self.assertEqual(lint_files({"src/a.hpp": src}), [])

    def test_wrong_rule_does_not_suppress(self):
        src = ("// drlint-allow(raw-random)\n"
               "std::unordered_map<int, int> m_;\n")
        self.assertEqual(rules_in(lint_files({"src/a.hpp": src})),
                         ["unordered-container"])

    def test_allow_does_not_leak_past_code_line(self):
        src = ("// drlint-allow(unordered-container)\n"
               "int unrelated;\n"
               "std::unordered_map<int, int> m_;\n")
        self.assertEqual(rules_in(lint_files({"src/a.hpp": src})),
                         ["unordered-container"])

    def test_unknown_rule_in_allow_tag_is_a_finding(self):
        src = ("// drlint-allow(wall-clok): misspelled\n"
               "auto t = std::chrono::steady_clock::now();\n")
        findings = lint_files({"src/a.cpp": src})
        self.assertEqual(rules_in(findings),
                         ["unknown-allow", "wall-clock"])
        self.assertIn("wall-clok", [f for f in findings
                                    if f.rule == "unknown-allow"][0].text)


class WriteScanTest(unittest.TestCase):
    def test_assignment(self):
        self.assertTrue(drlint.scan_writes("stats_.x = 1;", "stats_"))

    def test_pre_increment_on_field(self):
        self.assertTrue(drlint.scan_writes("++stats_.pkts;", "stats_"))

    def test_compound_assignment(self):
        self.assertTrue(drlint.scan_writes("now_ += 2;", "now_"))

    def test_comparison_is_not_a_write(self):
        self.assertFalse(drlint.scan_writes("if (now_ == 2)", "now_"))
        self.assertFalse(drlint.scan_writes("a = now_;", "now_"))

    def test_field_of_other_object_ignored(self):
        self.assertFalse(drlint.scan_writes("d.stats_ = 1;", "stats_"))

    def test_mutating_call(self):
        self.assertTrue(
            drlint.scan_mutating_call("free_.push_back(h);", "free_"))
        self.assertFalse(
            drlint.scan_mutating_call("free_.empty();", "free_"))

    def test_mutable_reference_binding(self):
        self.assertTrue(drlint.binds_mutable("Box &b = boxes_[d];", "boxes_"))
        self.assertTrue(drlint.binds_mutable("auto &r = *routers_[i];",
                                             "routers_"))
        self.assertFalse(drlint.binds_mutable(
            "const Box &b = boxes_[d];", "boxes_"))
        self.assertFalse(drlint.binds_mutable("if (a & b == boxes_)",
                                              "boxes_"))


class ConfinementHelperTest(unittest.TestCase):
    """The confinement walk's text scanners."""

    def test_deep_mutating_call_two_levels(self):
        self.assertTrue(drlint.scan_mutating_call(
            "perCore_[core].claims.push_back(slot);", "perCore_",
            deep=True))

    def test_deep_mutating_call_one_level(self):
        self.assertTrue(drlint.scan_mutating_call(
            "tags_[i].insert(addr, {});", "tags_", deep=True))

    def test_deep_non_mutating_chain_ignored(self):
        self.assertFalse(drlint.scan_mutating_call(
            "n += perCore_[core].claims.size();", "perCore_", deep=True))

    def test_normalize_index_strips_cast(self):
        self.assertEqual(
            drlint.normalize_index("static_cast<int>( core )"), "core")

    def test_first_subscript_balanced(self):
        self.assertEqual(
            drlint.first_subscript("banks_[idx[0]].x = 1;", "banks_"),
            "idx[0]")


class LiveTreeCase(unittest.TestCase):
    """Base for cases that read the real tree's scan."""

    @classmethod
    def setUpClass(cls):
        cls.prog = drlint.scan(REPO, ["src", "tools"])
        cls.classes = cls.prog.classes


class LiveTreeTest(LiveTreeCase):
    def test_live_tree_has_zero_findings(self):
        self.assertEqual([str(f) for f in self.prog.findings], [])


class PhaseModelTest(LiveTreeCase):
    """The parser recovers the real tree's ownership model."""

    def test_network_members_classified(self):
        net = self.classes["Network"]
        self.assertEqual(net.classification("stats_"), "serial")
        self.assertEqual(net.classification("nis_"), "domain")
        self.assertEqual(self.classes["Domain"].classification("outgoing"),
                         "domain")
        self.assertIsNone(net.classification("barrier_"))  # type-exempt

    def test_class_level_annotation_covers_members(self):
        router = self.classes["Router"]
        self.assertEqual(router.annotation, "domain")
        self.assertEqual(router.classification("keySets_"), "domain")

    def test_method_phases(self):
        net = self.classes["Network"]
        self.assertEqual(net.phase("niInject"), "compute")
        self.assertEqual(net.phase("mergeTick"), "commit")
        pool = self.classes["PacketPool"]
        self.assertEqual(pool.phase("alloc"), "compute")
        self.assertEqual(pool.phase("release"), "compute")

    def test_stamped_structures_detected(self):
        for name in ("Ni", "Domain", "Router", "CommitList"):
            self.assertTrue(self.classes[name].has_stamp, name)

    def test_endpoint_phase_is_compute_checked(self):
        sm = self.classes["SmCore"]
        self.assertEqual(sm.phase("tick"), "compute")
        self.assertEqual(sm.phase("executeMemAccess"), "compute")
        self.assertEqual(sm.phase("resolveOracleQueries"), "commit")
        for name in ("MemNode", "CpuNode"):
            self.assertEqual(self.classes[name].phase("tick"), "compute")
        self.assertEqual(self.classes["MesiDirectory"].phase("access"),
                         "compute")

    def test_locality_oracle_is_serial_callable(self):
        sm = self.classes["SmCore"]
        self.assertEqual(sm.classification("localityOracle_"), "serial")
        self.assertIn("function", sm.members["localityOracle_"].type)


class ConfinementVerdictTest(LiveTreeCase):
    def test_all_organizers_confined(self):
        verdicts = self.prog.verdicts
        for cls in ("PrivateL1", "SharedL1", "DynEbL1"):
            self.assertIn(cls, verdicts)
            self.assertTrue(verdicts[cls].confined,
                            "%s unconfined: %s"
                            % (cls, verdicts[cls].reasons))
        self.assertIn("SharedL1", verdicts["DynEbL1"].delegates)


class MutantCase(unittest.TestCase):
    """Each seeded static mutant must be caught by its rule."""

    def assert_rule(self, findings, rule, path, contains=None):
        hits = [f for f in findings if f.rule == rule and f.path == path]
        self.assertTrue(hits, "expected [%s] in %s, got %s"
                        % (rule, path, [str(f) for f in findings]))
        if contains is not None:
            self.assertTrue(any(contains in f.text for f in hits),
                            "no [%s] finding mentions %r: %s"
                            % (rule, contains, [str(f) for f in hits]))


class PhaseRuleMutantTest(MutantCase):
    def test_mutant_wrong_phase_write(self):
        # niEject (compute) bumps a DR_SERIAL_ONLY global counter.
        prog = scan_mutated([
            (NETWORK_CPP, EJECT_STAMP,
             EJECT_STAMP + "\n    ++stats_.packetsDelivered;")])
        self.assert_rule(prog.findings, "compute-writes-serial",
                         NETWORK_CPP)

    def test_mutant_unstaged_cross_domain(self):
        # sendGrants pushes the cross-domain hop straight into the
        # consumer's wheel instead of onto its own outgoing list.
        prog = scan_mutated([(
            NETWORK_CPP,
            "            d.outgoing.push_back(a);",
            "            scheduleArrival(domains_[out.domain], a);")])
        self.assert_rule(prog.findings, "cross-domain-commit", NETWORK_CPP)

    def test_mutant_unstaged_cross_domain_credit(self):
        # sendGrants files a cross-domain credit straight into the
        # feeder's wheel; the flit's outgoing list does not excuse it.
        prog = scan_mutated([(
            NETWORK_CPP,
            "            d.outgoingCredits.push_back({when, c});",
            "            scheduleCredit(domains_[in.domain], when, c);")])
        self.assert_rule(prog.findings, "cross-domain-commit", NETWORK_CPP,
                         contains="scheduleCredit")

    def test_mutant_missing_annotation(self):
        # A tick-reachable Network member loses its classification.
        prog = scan_mutated([
            (NETWORK_HPP, "    std::vector<Ni> nis_ DR_DOMAIN_OWNED;",
             "    std::vector<Ni> nis_;")])
        self.assert_rule(prog.findings, "unannotated-state", NETWORK_HPP)

    def test_mutant_commit_call_in_compute(self):
        # niInject (compute) runs the serial merge itself: the merge
        # files every domain's outgoing lists and must wait for the
        # barrier.
        head = ("Network::niInject(Domain &d, Ni &ni, NodeId node, "
                "Cycle now)\n{\n    DR_STAMP_WRITE(ni);")
        prog = scan_mutated([
            (NETWORK_CPP, head, head + "\n    mergeTick();")])
        self.assert_rule(prog.findings, "compute-calls-commit",
                         NETWORK_CPP)

    def test_mutant_commit_call_through_member(self):
        # An endpoint-phase SmCore body drains the L1 organization's
        # staged effects through its `l1_` member: commitCycle belongs
        # to the merge.
        prog = scan_mutated([
            (SM_CORE, FILL_CALL, FILL_CALL + "\n    l1_.commitCycle(now);")])
        self.assert_rule(prog.findings, "compute-calls-commit", SM_CORE,
                         contains="l1_.commitCycle")

    def test_mutant_commit_call_through_local(self):
        # tickEndpoints refills a core's CTAs through its local
        # `SmCore *g` instead of leaving the refill to the merge.
        tick = "        g->tick(now);"
        prog = scan_mutated([
            (HETERO_CPP, tick, tick + "\n        g->refillCtas(now);")])
        self.assert_rule(prog.findings, "compute-calls-commit", HETERO_CPP,
                         contains="refillCtas")

    def test_mutant_spsc_drained_descending(self):
        # The serial merge files the outgoing lists of the producers
        # backwards.
        prog = scan_mutated([(
            NETWORK_CPP,
            "    for (Domain &d : domains_) {\n"
            "        // File this domain's cross-domain arrivals.",
            "    for (int p = numDomains_ - 1; p >= 0; --p) {\n"
            "        Domain &d = domains_[p];")])
        self.assert_rule(prog.findings, "spsc-drain-order", NETWORK_CPP)

    def test_mutant_mid_tick_oracle_call(self):
        # A mid-tick oracle read: executeMemAccess (endpoint phase)
        # calls the cross-core locality oracle directly instead of
        # staging the query for the serial merge.
        prog = scan_mutated([(
            SM_CORE,
            "    ++stats_.loads;\n"
            "    ++stats_.l1Misses;\n"
            "    if (localityOracle_)\n"
            "        oracleQueries_.push_back(line);",
            "    ++stats_.loads;\n"
            "    ++stats_.l1Misses;\n"
            "    if (localityOracle_ && localityOracle_(coreIdx_, line))\n"
            "        ++stats_.missesWithRemoteCopy;")])
        self.assert_rule(prog.findings, "serial-call-in-compute", SM_CORE)

    def test_mutant_commit_call_in_endpoint_phase(self):
        # finishWarp (endpoint phase) hands out the next CTA inline via
        # the shared scheduler instead of deferring to refillCtas.
        prog = scan_mutated([
            (SM_CORE, "        pendingCtaRefills_.push_back(warp.slot);",
             "        assignCta(ctaSlots_[warp.slot], now);")])
        self.assert_rule(prog.findings, "compute-calls-commit", SM_CORE)

    def test_mutant_commit_list_escape(self):
        # tickEndpoints files a staged GPU core somewhere other than its
        # domain's stamped commit list: onto the serial endpoint list
        # (a push through a field chain), or through a mutable alias of
        # the commit lists once they are classified serial-only.
        push = "            staged.gpus.push_back(g);"
        prog = scan_mutated([
            (HETERO_CPP, push,
             push.replace("staged.", "endpointDomains_[d].")),
        ])
        self.assert_rule(prog.findings, "compute-writes-serial",
                         HETERO_CPP, contains="endpointDomains_")
        member = "    std::vector<CommitList> commit_ DR_DOMAIN_OWNED;"
        prog = scan_mutated([
            (HETERO_HPP, member,
             member.replace("DR_DOMAIN_OWNED", "DR_SERIAL_ONLY")),
        ])
        self.assert_rule(prog.findings, "compute-writes-serial",
                         HETERO_CPP, contains="commit_[d]")
        # Any structure declaring DR_DOMAIN_STAMP is stamp-checked, not
        # only Ni and Domain.
        prog = scan_mutated([
            (HETERO_CPP, "    DR_STAMP_WRITE(staged);\n", "")])
        self.assert_rule(prog.findings, "missing-stamp-check", HETERO_CPP)

    def test_mutant_stamp_bypass(self):
        # niInject drops its writer stamp while still mutating the NI.
        prog = scan_mutated([(
            NETWORK_CPP,
            "Cycle now)\n{\n    DR_STAMP_WRITE(ni);\n"
            "    const int attachRouter",
            "Cycle now)\n{\n"
            "    const int attachRouter")])
        self.assert_rule(prog.findings, "missing-stamp-check", NETWORK_CPP)


class ReachMutantTest(MutantCase):
    def test_mutant_cross_tu_phase_escape(self):
        # The per-body rules alone are blind to this: the call is not a
        # known mutating call and the write sits in an unannotated
        # method of another file.
        prog = scan_mutated(TOUCH_EPOCH)
        self.assert_rule(prog.findings, "phase-escape", COHERENCE,
                         contains="epochs_")

    def test_mutant_two_hop_phase_escape(self):
        # Endpoint body -> unannotated helper -> second unannotated
        # helper that bumps a serial counter. The chain label must name
        # both intermediate methods.
        prog = scan_mutated([
            (COHERENCE, FLUSHES_GETTER, FLUSHES_GETTER +
             "\n\n    void noteFlushHint(int gpuCoreIdx)"
             " { bumpFlushes(gpuCoreIdx); }"
             "\n    void bumpFlushes(int) { ++flushes_; }"),
            (SM_CORE, FILL_CALL, FILL_CALL +
             "\n    coherence_.noteFlushHint(coreIdx_);"),
        ])
        self.assert_rule(prog.findings, "phase-escape", COHERENCE,
                         contains="flushes_")
        self.assertTrue(any("noteFlushHint" in f.text and
                            "bumpFlushes" in f.text
                            for f in prog.findings
                            if f.rule == "phase-escape"),
                        "chain labels missing: %s"
                        % [str(f) for f in prog.findings])

    def test_mutant_virtual_dispatch_phase_escape(self):
        # A serial-state write hidden inside a virtual override that
        # endpoint bodies reach through the L1Organizer interface
        # (l1_.contains). Only the family fan-out sees it.
        prog = scan_mutated([
            (SHARED_CPP, CONTAINS_HEAD, CONTAINS_HEAD +
             "\n    ++aggregate_.loadHits;")])
        self.assert_rule(prog.findings, "phase-escape", SHARED_CPP,
                         contains="aggregate_")

    def test_mutant_virtual_dispatch_unclassified(self):
        # A bodiless, non-pure virtual reached from an endpoint body:
        # no override to analyze, no declared phase -> unclassifiable.
        prog = scan_mutated([
            (L1_IFACE, CONTAINS_PURE, CONTAINS_PURE +
             "\n    virtual void prefetch(int gpuCoreIdx);"),
            (SM_CORE, FILL_CALL, FILL_CALL +
             "\n    l1_.prefetch(coreIdx_);"),
        ])
        self.assert_rule(prog.findings, "virtual-dispatch-unclassified",
                         SM_CORE, contains="prefetch")

    def test_mutant_inject_writes_serial(self):
        # Endpoints inject straight into their own NI, so a serial
        # counter bumped in Network::inject is a compute-phase write,
        # reached through Interconnect::send's net(kind) getter.
        prog = scan_mutated([
            (NETWORK_CPP, INJECT_COUNT,
             INJECT_COUNT + "\n    ++stats_.packetsInjected;")])
        self.assert_rule(prog.findings, "phase-escape", NETWORK_CPP,
                         contains="Interconnect::send -> Network::inject")

    def test_mutant_cross_core_bank_write(self):
        # The staged claim lands in core 0's bank regardless of the
        # calling core: SharedL1 is no longer core-confined.
        prog = scan_mutated([
            (SHARED_CPP, CLAIMS_PUSH,
             CLAIMS_PUSH.replace("perCore_[core]", "perCore_[0]"))])
        self.assert_rule(prog.findings, "l1-unconfined", SHARED_HPP,
                         contains="SharedL1")
        self.assertFalse(prog.verdicts["SharedL1"].confined)
        # DynEbL1 delegates to SharedL1, so its verdict degrades too.
        self.assertFalse(prog.verdicts["DynEbL1"].confined)


class PhaseSuppressionTest(unittest.TestCase):
    def test_allow_comment_suppresses(self):
        prog = scan_mutated([
            (NETWORK_CPP, EJECT_STAMP, EJECT_STAMP +
             "\n    // drlint-allow(compute-writes-serial): test\n"
             "    ++stats_.packetsDelivered;")])
        self.assertNotIn("compute-writes-serial", rules_in(prog.findings))

    def test_wrong_rule_does_not_suppress(self):
        prog = scan_mutated([
            (NETWORK_CPP, EJECT_STAMP, EJECT_STAMP +
             "\n    // drlint-allow(unannotated-state): wrong rule\n"
             "    ++stats_.packetsDelivered;")])
        self.assertIn("compute-writes-serial", rules_in(prog.findings))


class ReachSuppressionTest(unittest.TestCase):
    def test_allow_at_call_site_kills_the_chain(self):
        rel, old, new = TOUCH_EPOCH[1]
        prog = scan_mutated([TOUCH_EPOCH[0], (
            rel, old, new + "  // drlint-allow(phase-escape)")])
        self.assertNotIn("phase-escape", rules_in(prog.findings))

    def test_wrong_rule_at_call_site_does_not_suppress(self):
        rel, old, new = TOUCH_EPOCH[1]
        prog = scan_mutated([TOUCH_EPOCH[0], (
            rel, old, new + "  // drlint-allow(l1-unconfined)")])
        self.assertIn("phase-escape", rules_in(prog.findings))


class CliTest(unittest.TestCase):
    """Exit codes, the verdict table and the rule list."""

    def run_tree(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            write_files(tmp, files)
            return run_main(["--root", tmp, "src"])

    def test_clean_tree_exits_zero(self):
        code, out = self.run_tree({"src/a.cpp": "int x;\n"})
        self.assertEqual(code, 0)
        self.assertIn("drlint: clean", out)

    def test_finding_exits_nonzero(self):
        code, out = self.run_tree({"src/a.cpp": "int x = rand();\n"})
        self.assertEqual(code, 1)
        self.assertIn("src/a.cpp:1: [raw-random]", out)

    def test_mutant_exits_nonzero(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(os.path.join(REPO, "src"),
                            os.path.join(tmp, "src"))
            apply_patches(tmp, TOUCH_EPOCH)
            code, out = run_main(["--root", tmp, "src"])
        self.assertEqual(code, 1)
        self.assertIn("phase-escape", out)

    def test_every_run_prints_verdict_table(self):
        code, out = run_main(["--root", REPO])
        self.assertEqual(code, 0)
        self.assertIn("confinement verdicts", out)
        for cls in ("PrivateL1", "SharedL1", "DynEbL1"):
            self.assertRegex(out, r"\n  %s +confined " % cls)

    def test_list_rules_names_every_rule(self):
        code, out = run_main(["--list-rules"])
        self.assertEqual(code, 0)
        for rule in drlint.RULES:
            self.assertIn(rule, out)


class GroupsTest(unittest.TestCase):
    def test_every_case_in_exactly_one_group(self):
        grouped = [c for cases in GROUPS.values() for c in cases]
        defined = [c for c in globals().values()
                   if isinstance(c, type)
                   and issubclass(c, unittest.TestCase)
                   and c.__name__.endswith("Test")]
        self.assertEqual(len(grouped), len(set(grouped)))
        self.assertEqual(set(grouped), set(defined))


GROUPS = {
    "determinism": [StripCodeTest, RuleTest, SuppressionTest, LiveTreeTest,
                    CliTest, GroupsTest],
    "phase": [WriteScanTest, PhaseModelTest, PhaseRuleMutantTest,
              PhaseSuppressionTest],
    "reach": [ConfinementHelperTest, ConfinementVerdictTest,
              ReachMutantTest, ReachSuppressionTest],
}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--group", choices=sorted(GROUPS),
                        help="run one rule family's cases (default: all)")
    args = parser.parse_args(argv)
    names = [args.group] if args.group else sorted(GROUPS)
    loader = unittest.defaultTestLoader
    suite = unittest.TestSuite(loader.loadTestsFromTestCase(case)
                               for name in names for case in GROUPS[name])
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
