"""Kernel-backend selection and numpy-kernel unit tests.

The canonical stripped-cluster form is the single source of truth for a
PLI's identity, so whichever backend computes an operation the resulting
clusters must be bit-identical; these tests pin the selection machinery
(explicit, environment, scoped) and the numpy kernel's edge cases.  The
broader equivalence sweep lives in ``test_kernel_differential.py``.
"""

import warnings

import pytest

from repro.pli import (
    KERNEL_STATS,
    PLI,
    BackendUnavailable,
    available_backends,
    numpy_available,
    pli_from_column,
    set_backend,
    use_backend,
)
from repro.pli import backend as backend_mod

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)


@pytest.fixture(autouse=True)
def _restore_backend():
    """Backend selection is process-global; never leak it across tests."""
    previous = backend_mod.ACTIVE
    yield
    backend_mod.ACTIVE = previous


class TestSelection:
    def test_python_always_available(self):
        assert "python" in available_backends()

    def test_available_backends_reflects_numpy(self):
        if numpy_available():
            assert available_backends() == ("python", "numpy")
        else:
            assert available_backends() == ("python",)

    def test_set_backend_arms_process_wide(self):
        backend = set_backend("python")
        assert backend_mod.ACTIVE is backend
        assert backend.name == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendUnavailable, match="unknown PLI backend"):
            set_backend("fortran")

    def test_rejected_choice_leaves_previous_backend_armed(self):
        armed = set_backend("python")
        with pytest.raises(BackendUnavailable):
            set_backend("fortran")
        assert backend_mod.ACTIVE is armed

    def test_use_backend_restores_on_exit(self):
        before = backend_mod.ACTIVE
        with use_backend("python") as active:
            assert backend_mod.ACTIVE is active
        assert backend_mod.ACTIVE is before

    def test_use_backend_none_is_a_no_op(self):
        before = backend_mod.ACTIVE
        with use_backend(None) as active:
            assert active is before
            assert backend_mod.ACTIVE is before

    def test_environment_default_python(self, monkeypatch):
        monkeypatch.delenv(backend_mod.ENV_VAR, raising=False)
        assert backend_mod._from_environment().name == "python"

    def test_environment_selects_named_backend(self, monkeypatch):
        monkeypatch.setenv(backend_mod.ENV_VAR, "python")
        assert backend_mod._from_environment().name == "python"

    @needs_numpy
    def test_environment_selects_numpy(self, monkeypatch):
        monkeypatch.setenv(backend_mod.ENV_VAR, "numpy")
        assert backend_mod._from_environment().name == "numpy"

    def test_bad_environment_value_warns_and_falls_back(self, monkeypatch):
        # Import-time resolution must not poison every run of a process
        # with a stale environment — degrade loudly to python instead.
        monkeypatch.setenv(backend_mod.ENV_VAR, "fortran")
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert backend_mod._from_environment().name == "python"

    def test_explicit_environment_reresolve(self, monkeypatch):
        monkeypatch.setenv(backend_mod.ENV_VAR, "python")
        set_backend("python")
        assert set_backend(None).name == "python"

    def test_snapshot_names_the_active_backend(self):
        with use_backend("python"):
            assert KERNEL_STATS.snapshot()["pli_backend"] == "python"
        if numpy_available():
            with use_backend("numpy"):
                assert KERNEL_STATS.snapshot()["pli_backend"] == "numpy"


@needs_numpy
class TestNumpyKernel:
    """Unit coverage of the vectorized kernel's edge cases.

    Everything asserts against the python backend's output on the same
    inputs — the canonical form is the contract.
    """

    def _both(self, operation):
        with use_backend("python"):
            expected = operation()
        with use_backend("numpy"):
            actual = operation()
        return expected, actual

    def test_intersect_matches_python(self):
        a = pli_from_column([1, 1, 2, 2, 3, 3, 3])
        b = pli_from_column([1, 2, 1, 1, 2, 2, 1])
        expected, actual = self._both(lambda: a.intersect(b).clusters)
        assert actual == expected

    def test_intersect_empty_side(self):
        a = pli_from_column([1, 2, 3])  # no clusters
        b = pli_from_column([1, 1, 1])
        with use_backend("numpy"):
            assert a.intersect(b).clusters == ()

    def test_intersect_fully_stripped_partner(self):
        # partner == -1 for every scanned row: the keep-mask filter path.
        a = pli_from_column([1, 1, 2, 2, 3, 4])
        b = pli_from_column([0, 1, 2, 3, 9, 9])
        with use_backend("numpy"):
            assert a.intersect(b).clusters == ()

    def test_intersect_result_state_chains(self):
        # A numpy-produced PLI seeds its own array state; chaining another
        # intersection must reuse it and still be canonical.
        a = pli_from_column([1, 1, 1, 2, 2, 2])
        b = pli_from_column([1, 1, 2, 2, 1, 1])
        c = pli_from_column([5, 5, 5, 5, 5, 9])
        with use_backend("numpy"):
            first = a.intersect(b)
            assert first._np is not None
            chained = first.intersect(c).clusters
        with use_backend("python"):
            expected = a.intersect(b).intersect(c).clusters
        assert chained == expected

    def test_refines_parity_with_scan_position(self):
        pli = pli_from_column(["a", "a", "b", "b", "c", "c"])
        vector = [7, 7, 8, 9, 0, 0]  # violates in the second cluster
        for name in ("python", "numpy"):
            with use_backend(name):
                before = KERNEL_STATS.snapshot()
                assert not pli.refines(vector)
                delta = KERNEL_STATS.delta(before)
            assert delta["refine_calls"] == 1, name
            assert delta["refine_cluster_scans"] == 2, name

    def test_refines_holds_scans_every_cluster(self):
        pli = pli_from_column(["a", "a", "b", "b"])
        with use_backend("numpy"):
            before = KERNEL_STATS.snapshot()
            assert pli.refines([1, 1, 2, 2])
            assert KERNEL_STATS.delta(before)["refine_cluster_scans"] == 2

    def test_refines_empty_pli_scans_nothing(self):
        pli = pli_from_column([1, 2, 3])
        with use_backend("numpy"):
            before = KERNEL_STATS.snapshot()
            assert pli.refines([9, 9, 9])
            assert KERNEL_STATS.delta(before)["refine_cluster_scans"] == 0

    def test_probe_accounting_matches_python_semantics(self):
        a = pli_from_column([1, 1, 2, 2, 3, 3])
        b = pli_from_column([1, 2, 1, 2, 1, 2])
        with use_backend("numpy"):
            before = KERNEL_STATS.snapshot()
            a.intersect(b)
            a.intersect(b)
            delta = KERNEL_STATS.delta(before)
        assert delta["pli_intersections"] == 2
        assert delta["probe_builds"] == 1
        assert delta["probe_reuses"] == 1

    def test_public_constructor_validation_is_backend_independent(self):
        with use_backend("numpy"):
            with pytest.raises(ValueError, match="outside the partition"):
                PLI([[0, 7]], 4)
            with pytest.raises(ValueError, match="more than one cluster"):
                PLI([[0, 1], [1, 2]], 4)


class TestNumpyUnavailable:
    @pytest.mark.skipif(numpy_available(), reason="numpy is installed")
    def test_explicit_numpy_request_raises(self):
        with pytest.raises(BackendUnavailable, match="numpy"):
            set_backend("numpy")
