#!/usr/bin/env python3
"""Unit tests for tools/check_test_only_code.py (stdlib unittest, in ctest).

Covers the parts that need no build: which mangled symbols count as hp::
functions (a std:: template returning an hp:: type does not), the set
difference over demangled names, and the keep-list check (a missing entry
and a stale one both fail). The full check builds two trees and runs in
CI.
"""

import shutil
import sys
import unittest
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent.parent.parent / "tools"
sys.path.insert(0, str(TOOLS_DIR))

import check_test_only_code as guard  # noqa: E402

# hp::linalg::gram(hp::linalg::Matrix const&)
GRAM = "_ZN2hp6linalg4gramERKNS0_6MatrixE"
# hp::linalg::Matrix::add_to_diagonal(double)
ADD_TO_DIAGONAL = "_ZN2hp6linalg6Matrix15add_to_diagonalEd"
# hp::linalg::LeastSquaresFit const& std::__pair_get<1ul>::__const_get<...>
PAIR_GET = ("_ZNSt10__pair_getILm1EE11__const_getIKNSt7__cxx1112basic_string"
            "IcSt11char_traitsIcESaIcEEEN2hp6linalg15LeastSquaresFitEEERKT0_"
            "RKSt4pairIT_SC_E")


class HpFunctionTest(unittest.TestCase):
    def test_matches_functions_and_const_members_in_hp(self):
        self.assertTrue(guard.HP_FUNCTION.match(GRAM))
        self.assertTrue(guard.HP_FUNCTION.match(
            "_ZNK2hp2hw12GpuSimulator11loaded_costEv"))

    def test_skips_std_templates_over_hp_types(self):
        self.assertFalse(guard.HP_FUNCTION.match(PAIR_GET))

    def test_skips_namespaces_that_only_start_with_hp(self):
        self.assertFalse(guard.HP_FUNCTION.match("_ZN3hpx3fooEv"))


@unittest.skipIf(shutil.which("c++filt") is None, "needs c++filt")
class TestOnlyFunctionsTest(unittest.TestCase):
    def test_unlinked_hp_functions_by_demangled_name(self):
        found = guard.test_only_functions({GRAM, ADD_TO_DIAGONAL, PAIR_GET},
                                          {ADD_TO_DIAGONAL})
        self.assertEqual(found, {"hp::linalg::gram(hp::linalg::Matrix const&)"})

    def test_everything_linked_is_nothing(self):
        self.assertEqual(guard.test_only_functions({GRAM}, {GRAM}), set())


class CheckTest(unittest.TestCase):
    def test_kept_functions_pass(self):
        self.assertEqual(guard.check({"hp::a()"}, {"hp::a()": "reason"}), [])

    def test_unkept_function_fails(self):
        self.assertEqual(guard.check({"hp::a()", "hp::b()"},
                                     {"hp::a()": "reason"}),
                         ["test-only: hp::b()"])

    def test_stale_keep_entry_fails(self):
        self.assertEqual(
            guard.check(set(), {"hp::a()": "reason"}),
            ["stale keep entry (no longer test-only): hp::a()"])

    def test_every_keep_entry_gives_a_reason(self):
        for name, reason in guard.KEEP.items():
            self.assertTrue(reason.strip(), name)


if __name__ == "__main__":
    unittest.main()
