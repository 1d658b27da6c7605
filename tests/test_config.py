"""The argument rules: config.is_int for every integer, check_order for every order bound."""

from __future__ import annotations

import numpy as np
import pytest

from quandles._subgroups import _SymmetricIndex
from quandles.config import HARD_MAX_ORDER, BoundError, check_order, is_int
from quandles.enumeration import enumerate_connected
from quandles.oracle import enumerate_all
from quandles.perm import (
    PermGroup,
    Permutation,
    _transitive_class_groups,
    generate_group,
    transitive_subgroups_up_to_conjugacy,
)
from quandles.quandle import dihedral_quandle


def message(call, *args) -> tuple[type, str]:
    with pytest.raises(ValueError) as info:
        call(*args)
    return type(info.value), str(info.value)


def passes_the_permutation_image_check(value) -> bool:
    """Whether Permutation's bulk image check lets the value through, range aside."""
    try:
        Permutation((value,))
    except TypeError:
        return False
    except ValueError:  # an int that is not a permutation of 0..0
        pass
    return True


class TestIsInt:
    @pytest.mark.parametrize("value, expected", [
        (5, True), (np.int64(5), True), (np.int8(1), True), (True, False),
        (np.True_, False), (2.0, False), ("3", False), (None, False),
    ])
    def test_truth_table_agrees_with_the_permutation_check(self, value, expected):
        assert is_int(value) is expected
        assert passes_the_permutation_image_check(value) is expected

    def test_numpy_ints_work_end_to_end(self, monkeypatch):
        monkeypatch.delenv("QUANDLE_MAX_ORDER", raising=False)
        assert enumerate_connected(np.int64(4)) == enumerate_connected(4)
        groups = transitive_subgroups_up_to_conjugacy(np.int64(4))
        # The search itself, past the cache an earlier int call may have filled.
        uncached = _transitive_class_groups.__wrapped__(np.int64(4))
        assert groups == list(uncached) == transitive_subgroups_up_to_conjugacy(4)
        trivial = generate_group([], np.int64(3))
        built = PermGroup((Permutation(np.array([0, 1, 2], dtype=np.int64)),))
        assert trivial == built == generate_group([], 3)
        for group in (*uncached, trivial, built):
            assert type(group.degree) is int


class TestCheckOrder:
    @pytest.mark.parametrize("n", [1, 6])
    def test_accepts_orders_within_the_bound(self, n, monkeypatch):
        monkeypatch.delenv("QUANDLE_MAX_ORDER", raising=False)
        check_order(n, 6)
        check_order(n)

    @pytest.mark.parametrize("n", [0, -3])
    def test_below_one_is_a_plain_value_error(self, n):
        assert message(check_order, n) == (ValueError, "order must be at least 1")
        assert message(check_order, n, 6, "degree") == (ValueError, "degree must be at least 1")

    def test_configured_bound(self, monkeypatch):
        monkeypatch.delenv("QUANDLE_MAX_ORDER", raising=False)
        assert message(check_order, 7, 6) == (
            BoundError, "order 7 exceeds the configured bound 6"
        )

    def test_environment_sets_the_configured_bound(self, monkeypatch):
        monkeypatch.setenv("QUANDLE_MAX_ORDER", "4")
        check_order(4, 6)
        assert message(check_order, 5, 6, "degree") == (
            BoundError, "degree 5 exceeds the configured bound 4"
        )
        monkeypatch.setenv("QUANDLE_MAX_ORDER", "8")
        check_order(8, 6)

    def test_hard_bound_without_a_default(self, monkeypatch):
        # The environment moves only configured bounds.
        monkeypatch.setenv("QUANDLE_MAX_ORDER", "2")
        check_order(HARD_MAX_ORDER)
        assert message(check_order, HARD_MAX_ORDER + 1) == (
            BoundError, "order 9 exceeds the hard bound 8"
        )

    @pytest.mark.parametrize("n", [True, False, 2.5, 5.0, "3", None])
    def test_what_is_not_an_int_is_a_type_error(self, n, monkeypatch):
        monkeypatch.delenv("QUANDLE_MAX_ORDER", raising=False)
        for args, noun in (((n,), "order"), ((n, 6, "degree"), "degree")):
            with pytest.raises(TypeError) as info:
                check_order(*args)
            assert str(info.value) == f"{noun} must be an int, not {type(n).__name__}"

    def test_numpy_ints_pass(self, monkeypatch):
        monkeypatch.delenv("QUANDLE_MAX_ORDER", raising=False)
        check_order(np.int64(6), 6)
        check_order(np.int8(HARD_MAX_ORDER))
        assert message(check_order, np.int64(7), 6) == (
            BoundError, "order 7 exceeds the configured bound 6"
        )

    def test_a_bad_environment_value_is_refused_before_the_comparison(self, monkeypatch):
        monkeypatch.setenv("QUANDLE_MAX_ORDER", "9")
        assert message(check_order, 1, 6) == (
            BoundError, "QUANDLE_MAX_ORDER=9 refused; supported range is 1..8"
        )
        assert message(check_order, 0, 6) == (ValueError, "order must be at least 1")


class TestCallerMessages:
    """Each entry point's refusals, byte for byte as before the rule moved to config."""

    def test_enumerators(self, monkeypatch):
        monkeypatch.delenv("QUANDLE_MAX_ORDER", raising=False)
        for call in (enumerate_all, enumerate_connected):
            assert message(call, 0) == (ValueError, "order must be at least 1")
            assert message(call, 7) == (BoundError, "order 7 exceeds the configured bound 6")
        monkeypatch.setenv("QUANDLE_MAX_ORDER", "3")
        assert message(enumerate_all, 4) == (BoundError, "order 4 exceeds the configured bound 3")

    def test_transitive_subgroups(self, monkeypatch):
        monkeypatch.delenv("QUANDLE_MAX_ORDER", raising=False)
        call = transitive_subgroups_up_to_conjugacy
        assert message(call, 0) == (ValueError, "degree must be at least 1")
        assert message(call, 8) == (BoundError, "degree 8 exceeds the configured bound 7")
        monkeypatch.setenv("QUANDLE_MAX_ORDER", "5")
        assert message(call, 6) == (BoundError, "degree 6 exceeds the configured bound 5")

    def test_enumerators_refuse_bools_and_floats(self, monkeypatch):
        # enumerate_all(True) used to return a Census of order True, and 5.0
        # failed deep in the search.
        monkeypatch.delenv("QUANDLE_MAX_ORDER", raising=False)
        for call in (enumerate_all, enumerate_connected, transitive_subgroups_up_to_conjugacy):
            for n in (True, 5.0):
                with pytest.raises(TypeError, match="must be an int, not"):
                    call(n)

    def test_hard_bound_callers(self):
        assert message(_SymmetricIndex, 9) == (BoundError, "order 9 exceeds the hard bound 8")
        q = dihedral_quandle(9)
        assert message(q.automorphism_group) == (BoundError, "order 9 exceeds the hard bound 8")
