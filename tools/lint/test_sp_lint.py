#!/usr/bin/env python3
"""Self-test for sp_lint.py: every rule fires on a minimal fixture, stays
quiet on conforming code, and the waiver syntax works (including the two
malformed-waiver cases). Runs under plain unittest (python3
tools/lint/test_sp_lint.py) and is pytest-compatible; wired into ctest as
SpLintSelfTest."""

import unittest

import sp_lint


def violations(rel, text):
    return [(v.rule, v.line) for v in sp_lint.lint_text(rel, text)]


def rules(rel, text):
    return {v.rule for v in sp_lint.lint_text(rel, text)}


class RawAssertTest(unittest.TestCase):
    def test_fires_in_src(self):
        self.assertEqual(
            violations("src/foo/bar.cpp", "void f() { assert(x > 0); }"),
            [("raw-assert", 1)])

    def test_cassert_include_fires(self):
        self.assertIn("raw-assert",
                      rules("src/foo/bar.cpp", "#include <cassert>\n"))

    def test_static_assert_ok(self):
        self.assertEqual(
            rules("src/foo/bar.cpp", "static_assert(sizeof(int) == 4);"),
            set())

    def test_sp_assert_ok(self):
        self.assertEqual(
            rules("src/foo/bar.cpp", "void f() { SP_ASSERT(x > 0); }"),
            set())

    def test_quiet_outside_src(self):
        self.assertEqual(
            rules("tests/test_foo.cpp", "void f() { assert(x); }"), set())

    def test_quiet_in_contract_header(self):
        self.assertEqual(
            rules("src/core/contract.hpp", "// assert( replacement\n"
                  "#define X assert(0)"), set())

    def test_comment_mention_ok(self):
        self.assertEqual(
            rules("src/foo/bar.cpp", "// never call assert( here\n"), set())


class FloatEqTest(unittest.TestCase):
    def test_eq_literal_fires(self):
        self.assertEqual(
            violations("src/sim/g.cpp", "if (x == 0.0) { y(); }"),
            [("float-eq", 1)])

    def test_ne_literal_fires(self):
        self.assertIn("float-eq", rules("src/sim/g.cpp", "bool b = v != 1e-9;"))

    def test_literal_on_left_fires(self):
        self.assertIn("float-eq", rules("src/sim/g.cpp", "if (0.5 == x) {}"))

    def test_integer_compare_ok(self):
        self.assertEqual(rules("src/sim/g.cpp", "if (n == 0) {}"), set())

    def test_inequalities_ok(self):
        self.assertEqual(
            rules("src/sim/g.cpp", "if (x <= 0.0 || x >= 1.5) {}"), set())

    def test_geom_exempt(self):
        self.assertEqual(rules("src/geom/angle.cpp", "if (a == 0.0) {}"),
                         set())


class DeadlineLoopTest(unittest.TestCase):
    UNCHECKED = "void f() {\n  for (;;) {\n    step();\n  }\n}\n"
    CHECKED = ("void f() {\n  while (true) {\n"
               "    if (deadline.expired()) break;\n    step();\n  }\n}\n")

    def test_unchecked_loop_fires(self):
        self.assertEqual(violations("src/sectors/x.cpp", self.UNCHECKED),
                         [("deadline-loop", 2)])

    def test_checked_loop_ok(self):
        self.assertEqual(rules("src/sectors/x.cpp", self.CHECKED), set())

    def test_while_1_fires(self):
        self.assertIn("deadline-loop",
                      rules("src/knapsack/x.cpp",
                            "void f() { while (1) { g(); } }"))

    def test_non_solver_dir_exempt(self):
        self.assertEqual(rules("src/par/x.cpp", self.UNCHECKED), set())

    def test_shard_is_a_solver_dir(self):
        self.assertEqual(violations("src/shard/x.cpp", self.UNCHECKED),
                         [("deadline-loop", 2)])

    def test_bounded_loop_ok(self):
        self.assertEqual(
            rules("src/sectors/x.cpp",
                  "void f() { for (int i = 0; i < n; ++i) { g(); } }"),
            set())

    def test_braceless_fires(self):
        self.assertIn("deadline-loop",
                      rules("src/bounds/x.cpp", "void f() { while (true) g(); }"))


class UntrustedCountTest(unittest.TestCase):
    def test_stoull_fires_in_src(self):
        self.assertIn("untrusted-count",
                      rules("src/foo/x.cpp", "auto n = std::stoull(tok);"))

    def test_stoull_fires_in_tools(self):
        self.assertIn("untrusted-count",
                      rules("tools/x.cpp", "auto n = std::stoull(tok);"))

    def test_model_io_exempt(self):
        self.assertEqual(rules("src/model/io.cpp", "std::stoull(tok);"),
                         set())

    def test_reserve_on_parse_fires(self):
        self.assertIn("untrusted-count",
                      rules("src/foo/x.cpp", "v.reserve(std::stoull(tok));"))

    def test_plain_reserve_ok(self):
        self.assertEqual(rules("src/foo/x.cpp", "v.reserve(items.size());"),
                         set())

    def test_bench_exempt(self):
        self.assertEqual(rules("bench/x.cpp", "std::stoi(argv[1]);"), set())


class NarrowingSizeCastTest(unittest.TestCase):
    def test_static_cast_to_unsigned_fires(self):
        self.assertEqual(
            violations("tools/cli.cpp",
                       "c.jobs = static_cast<unsigned>("
                       "args.get_size(\"jobs\", 0));"),
            [("narrowing-size-cast", 1)])

    def test_fixed_width_and_pointer_forms_fire(self):
        self.assertIn("narrowing-size-cast",
                      rules("src/foo/x.cpp",
                            "auto n = static_cast<std::uint32_t>("
                            "a->get_size(k, 1));"))

    def test_c_style_cast_fires(self):
        self.assertIn("narrowing-size-cast",
                      rules("tools/cli.cpp",
                            "int w = (int)args.get_size(\"w\", 1);"))

    def test_functional_cast_fires(self):
        self.assertIn("narrowing-size-cast",
                      rules("tools/cli.cpp",
                            "auto w = unsigned(args.get_size(\"w\", 1));"))

    def test_size_t_cast_ok(self):
        self.assertEqual(
            rules("tools/cli.cpp",
                  "auto n = static_cast<std::size_t>(args.get_size(k, 1));"),
            set())

    def test_plain_and_bounded_reads_ok(self):
        self.assertEqual(
            rules("tools/cli.cpp",
                  "std::size_t n = args.get_size(\"n\", 1);\n"
                  "c.jobs = args.get_bounded(\"jobs\", 0U, kMaxJobs);\n"
                  "return static_cast<T>(value);\n"
                  "if (x) args.get_size(\"n\", 1);"),
            set())

    def test_waiver_works(self):
        self.assertEqual(
            rules("tools/cli.cpp",
                  "// sp-lint: allow(narrowing-size-cast) bounded above\n"
                  "auto w = static_cast<int>(args.get_size(\"w\", 1));"),
            set())


class CppIncludeTest(unittest.TestCase):
    def test_fires_everywhere(self):
        for rel in ("src/a/b.cpp", "tests/t.cpp", "bench/b.cpp"):
            self.assertIn("cpp-include",
                          rules(rel, '#include "src/model/io.cpp"'))

    def test_hpp_include_ok(self):
        self.assertEqual(
            rules("src/a/b.cpp", '#include "src/model/io.hpp"'), set())


class RawMutexTest(unittest.TestCase):
    def test_std_mutex_member_fires(self):
        self.assertEqual(
            violations("src/foo/x.hpp", "class C { std::mutex mu_; };"),
            [("raw-mutex", 1)])

    def test_lock_guard_fires(self):
        self.assertIn(
            "raw-mutex",
            rules("src/foo/x.cpp",
                  "void f() { std::lock_guard<std::mutex> l(m); }"))

    def test_unique_lock_fires(self):
        self.assertIn("raw-mutex",
                      rules("src/foo/x.cpp", "std::unique_lock lk(m);"))

    def test_condition_variable_fires(self):
        self.assertIn("raw-mutex",
                      rules("src/foo/x.hpp", "std::condition_variable cv_;"))

    def test_mutex_include_fires(self):
        self.assertIn("raw-mutex",
                      rules("src/foo/x.hpp", "#include <mutex>\n"))

    def test_shared_mutex_include_fires(self):
        self.assertIn("raw-mutex",
                      rules("src/foo/x.hpp", "#include <shared_mutex>\n"))

    def test_sync_header_exempt(self):
        self.assertNotIn(
            "raw-mutex",
            rules("src/core/sync.hpp", "std::mutex mu_;\n#include <mutex>"))

    def test_tests_exempt(self):
        self.assertEqual(
            rules("tests/test_x.cpp", "std::mutex mu; std::unique_lock l(mu);"),
            set())

    def test_core_mutex_ok(self):
        self.assertNotIn(
            "raw-mutex",
            rules("src/foo/x.hpp",
                  "core::Mutex mu_;\nint v_ SP_GUARDED_BY(mu_);"))

    def test_waiver_works(self):
        self.assertEqual(
            rules("src/foo/x.hpp",
                  "#include <mutex>  // sp-lint: allow(raw-mutex) fixture"),
            set())


class CvWaitNoPredicateTest(unittest.TestCase):
    def test_one_arg_wait_fires(self):
        self.assertIn("cv-wait-no-predicate",
                      rules("tests/test_x.cpp", "cv.wait(lock);"))

    def test_fires_in_src_too(self):
        # src/ would already fail raw-mutex for the cv itself, but the wait
        # rule must fire independently (core::CondVar could grow the overload).
        self.assertIn("cv-wait-no-predicate",
                      rules("src/foo/x.cpp", "cv_.wait(lock);"))

    def test_predicate_wait_ok(self):
        self.assertNotIn(
            "cv-wait-no-predicate",
            rules("tests/test_x.cpp",
                  "cv.wait(lock, [&] { return ready; });"))

    def test_multiline_predicate_ok(self):
        self.assertNotIn(
            "cv-wait-no-predicate",
            rules("tests/test_x.cpp",
                  "cv.wait(lock, [&] {\n  return a ||\n         b;\n});"))

    def test_future_wait_ok(self):
        self.assertNotIn("cv-wait-no-predicate",
                         rules("tests/test_x.cpp", "fut.wait();"))

    def test_nested_commas_do_not_fool_arity(self):
        # One argument containing commas inside nested parens is still arity 1.
        self.assertIn("cv-wait-no-predicate",
                      rules("tests/test_x.cpp", "cv.wait(pick(a, b));"))

    def test_waiver_works(self):
        self.assertEqual(
            rules("tests/test_x.cpp",
                  "cv.wait(lock);  // sp-lint: allow(cv-wait-no-predicate)"
                  " fixture"),
            set())


class DetachedThreadTest(unittest.TestCase):
    def test_detach_fires_everywhere(self):
        for rel in ("src/a/b.cpp", "tests/t.cpp", "tools/t.cpp"):
            self.assertIn("detached-thread", rules(rel, "t.detach();"))

    def test_join_ok(self):
        self.assertEqual(rules("src/a/b.cpp", "t.join();"), set())

    def test_comment_mention_ok(self):
        self.assertEqual(
            rules("src/a/b.cpp", "// never call .detach() here\n"), set())

    def test_waiver_works(self):
        self.assertEqual(
            rules("src/a/b.cpp",
                  "t.detach();  // sp-lint: allow(detached-thread) fixture"),
            set())


class RelaxedOrderTest(unittest.TestCase):
    def test_bare_relaxed_fires(self):
        self.assertEqual(
            violations("src/foo/x.cpp",
                       "n_.fetch_add(1, std::memory_order_relaxed);"),
            [("relaxed-order-no-rationale", 1)])

    def test_same_line_rationale_ok(self):
        self.assertEqual(
            rules("src/foo/x.cpp",
                  "n_.fetch_add(1, std::memory_order_relaxed);"
                  "  // sp-sync: stats only"),
            set())

    def test_preceding_rationale_ok(self):
        self.assertEqual(
            rules("src/foo/x.cpp",
                  "// sp-sync: monotonic counter, no ordering needed\n"
                  "n_.fetch_add(1, std::memory_order_relaxed);"),
            set())

    def test_rationale_window_covers_block(self):
        pad = "f();\n" * (sp_lint.RELAXED_RATIONALE_WINDOW - 1)
        text = ("// sp-sync: whole block is best-effort stats\n" + pad +
                "n_.load(std::memory_order_relaxed);")
        self.assertEqual(rules("src/foo/x.cpp", text), set())

    def test_rationale_outside_window_fires(self):
        pad = "f();\n" * (sp_lint.RELAXED_RATIONALE_WINDOW + 1)
        text = ("// sp-sync: too far away\n" + pad +
                "n_.load(std::memory_order_relaxed);")
        self.assertIn("relaxed-order-no-rationale",
                      rules("src/foo/x.cpp", text))

    def test_acquire_release_need_no_comment(self):
        self.assertEqual(
            rules("src/foo/x.cpp",
                  "flag_.store(true, std::memory_order_release);"),
            set())

    def test_tests_exempt(self):
        self.assertEqual(
            rules("tests/test_x.cpp",
                  "n.load(std::memory_order_relaxed);"),
            set())

    def test_waiver_works(self):
        self.assertEqual(
            rules("src/foo/x.cpp",
                  "// sp-lint: allow(relaxed-order-no-rationale) fixture\n"
                  "n_.load(std::memory_order_relaxed);"),
            set())


class UnannotatedGuardTest(unittest.TestCase):
    def test_guardless_mutex_fires(self):
        self.assertEqual(
            violations("src/foo/x.hpp",
                       "class C {\n  core::Mutex mu_;\n  int v_;\n};"),
            [("unannotated-guard", 2)])

    def test_guarded_file_ok(self):
        self.assertEqual(
            rules("src/foo/x.hpp",
                  "class C {\n  core::Mutex mu_;\n"
                  "  int v_ SP_GUARDED_BY(mu_);\n};"),
            set())

    def test_mutable_and_qualified_forms_fire(self):
        self.assertIn(
            "unannotated-guard",
            rules("src/foo/x.hpp", "mutable core::Mutex mu_;"))
        self.assertIn(
            "unannotated-guard",
            rules("src/foo/x.hpp", "sectorpack::core::Mutex mu_;"))

    def test_tests_exempt(self):
        self.assertEqual(rules("tests/test_x.cpp", "core::Mutex mu_;"),
                         set())

    def test_waiver_works(self):
        self.assertEqual(
            rules("src/foo/x.cpp",
                  "// sp-lint: allow(unannotated-guard) local mutex fixture\n"
                  "core::Mutex mu;"),
            set())


class WaiverTest(unittest.TestCase):
    def test_same_line_waiver(self):
        self.assertEqual(
            rules("src/foo/x.cpp",
                  "assert(x);  // sp-lint: allow(raw-assert) fixture"),
            set())

    def test_previous_line_waiver(self):
        self.assertEqual(
            rules("src/foo/x.cpp",
                  "// sp-lint: allow(raw-assert) legacy shim\nassert(x);"),
            set())

    def test_waiver_does_not_leak_two_lines_down(self):
        self.assertIn(
            "raw-assert",
            rules("src/foo/x.cpp",
                  "// sp-lint: allow(raw-assert) here\n\nassert(x);"))

    def test_waiver_is_rule_specific(self):
        self.assertIn(
            "raw-assert",
            rules("src/foo/x.cpp",
                  "// sp-lint: allow(float-eq) wrong rule\nassert(x);"))

    def test_missing_reason_rejected(self):
        self.assertEqual(
            violations("src/foo/x.cpp", "// sp-lint: allow(raw-assert)"),
            [("bad-waiver", 1)])

    def test_unknown_rule_rejected(self):
        self.assertEqual(
            violations("src/foo/x.cpp",
                       "// sp-lint: allow(made-up-rule) because"),
            [("bad-waiver", 1)])


class StripperTest(unittest.TestCase):
    def test_strings_ignored(self):
        self.assertEqual(
            rules("src/foo/x.cpp", 'const char* s = "assert(x)";'), set())

    def test_block_comments_ignored(self):
        self.assertEqual(
            rules("src/foo/x.cpp", "/* assert(x) == 0.0 */ int y;"), set())

    def test_line_numbers_survive_stripping(self):
        text = "// comment\n/* block\n   more */\nassert(x);\n"
        self.assertEqual(violations("src/foo/x.cpp", text),
                         [("raw-assert", 4)])


if __name__ == "__main__":
    unittest.main()
