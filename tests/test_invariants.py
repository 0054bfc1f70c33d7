"""Each invariant is checked once, where the value is built.

A Kraus-built transfer map is CPTP by construction and never re-checked; a
raw map is checked at most once however many consumers see it; a
one-parameter channel checks trace preservation once, through its
``KrausSet``; a dephasing family's generator coordinates are derived once,
and a transfer map's singular values are taken once.
Every input rejected before is still rejected, with the same exception type.
"""

import sys

import numpy as np
import pytest

from qmetro import qubit_core
from qmetro.bounds import ExtensionStep, bloch_inequality_check, extension_bound
from qmetro.channel_model import (
    DephasingFamily,
    OneParamChannel,
    canonical_pauli_form,
    classify,
    dephasing_channel,
    solve_h_annihilating,
    x_rotation_dephasing,
)
from qmetro.fisher_info import eta_bound
from qmetro.protocols import ControlSequence
from qmetro.qubit_core import (
    I2,
    X,
    KrausSet,
    PauliTransferMap,
    ValidationError,
    ptm_from_kraus,
    require_cptp,
)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(name)`` wraps ``qubit_core.<name>`` in every qmetro module binding it.

    Returns the list that grows by one entry per call.
    """

    def install(name):
        original = getattr(qubit_core, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "qmetro" and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return install


def damping_set(gamma):
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausSet([k0, k1])


def raw_cptp_map():
    """Amplitude damping at gamma = 0.36, given by hand and so not marked validated."""
    return PauliTransferMap([0, 0, 0.36], np.diag([0.8, 0.8, 0.64]))


NON_CP = PauliTransferMap([0, 0, 0.5], np.diag([0.9, 0.9, 0.9]))
CONSUMERS = {
    "ControlSequence": lambda m: ControlSequence([m] * 3, constant=False),
    "ExtensionStep": ExtensionStep,
    "classify": classify,
    "require_cptp": require_cptp,
}


class TestCptpCheckedOnce:
    def test_raw_map_checked_once_across_consumers(self, count_calls):
        calls = count_calls("validate_cptp")
        m = raw_cptp_map()
        assert not m.validated
        for consume in CONSUMERS.values():
            consume(m)
            consume(m)
        assert len(calls) == 1

    def test_kraus_built_map_checked_never(self, count_calls):
        calls = count_calls("validate_cptp")
        ks = damping_set(0.3)
        ptm = ptm_from_kraus(ks)
        assert ptm.validated
        for name, consume in CONSUMERS.items():
            if name != "require_cptp":
                consume(ptm)
        canonical_pauli_form(ks)
        assert solve_h_annihilating(ks, X).residual <= 1e-10
        assert calls == []

    def test_composition_of_validated_maps_is_validated(self):
        ptm = ptm_from_kraus(damping_set(0.3))
        assert ptm.compose(PauliTransferMap.identity()).validated
        assert not ptm.compose(raw_cptp_map()).validated

    def test_map_owns_read_only_copies(self):
        t, T = np.zeros(3), np.eye(3)
        m = PauliTransferMap(t, T)
        T[0, 0] = 5.0  # the caller's array is not the map's
        assert m.T[0, 0] == 1.0
        for array in (m.t, m.T):
            with pytest.raises(ValueError):
                array[0] = 5.0


class TestRejectionsKept:
    @pytest.mark.parametrize("consumer", sorted(CONSUMERS))
    def test_non_cptp_map_rejected(self, consumer):
        with pytest.raises(ValidationError):
            CONSUMERS[consumer](NON_CP)

    def test_rejection_is_remembered(self, count_calls):
        calls = count_calls("validate_cptp")
        m = PauliTransferMap(np.zeros(3), 1.5 * np.eye(3))
        for _ in range(2):
            with pytest.raises(ValidationError, match="min Choi eigenvalue"):
                require_cptp(m)
        assert len(calls) == 1

    def test_marked_map_still_checked_by_require_cptp(self):
        with pytest.raises(ValidationError):
            require_cptp(PauliTransferMap(np.zeros(3), 1.5 * np.eye(3), validated=True))

    def test_channel_not_trace_preserving(self):
        with pytest.raises(ValidationError, match="deviates from identity"):
            OneParamChannel([(1.01 * I2, np.zeros((2, 2)))])

    def test_kraus_set_rejects_nan(self):
        with pytest.raises(ValidationError, match="deviates from identity"):
            KrausSet([np.full((2, 2), np.nan)])


class TestBuiltOnce:
    def test_channel_kraus_set_is_built_once(self):
        ch = dephasing_channel(x_rotation_dephasing(0.1))
        assert ch.kraus_set() is ch.kraus_set()
        assert ch.k_ops is ch.kraus_set().ops

    def test_nonunital_bound_decomposes_once_per_step(self, count_calls):
        fam = x_rotation_dephasing(0.1)
        # amplitude damping moves iota on every step, so every step needs a fresh gauge
        steps = [ExtensionStep(ptm_from_kraus(damping_set(0.02)))] * 100
        calls = count_calls("pauli_decompose")
        extension_bound(fam, steps)
        assert len(calls) <= 100 + 2  # one iota per step, plus G+ and G- once per family
        calls.clear()
        extension_bound(fam, steps)
        assert len(calls) <= 100

    def test_generator_coordinates_are_fixed(self):
        g0 = X.copy()
        fam = DephasingFamily(0.1, 0.0, g0, -X)
        before = fam.g_minus_coords.copy()
        g0[0, 1] = g0[1, 0] = 5.0  # the caller's array is not the family's
        assert np.array_equal(fam.g_minus_coords, before)
        for array in (fam.g0, fam.g_plus_coords, fam.g_minus_coords, fam.transfer_matrix):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_singular_values_taken_once_per_map(self, monkeypatch):
        ptm = raw_cptp_map()
        want = np.linalg.svd(ptm.T, compute_uv=False)
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert np.array_equal(classify(ptm).singular_values, want)
        assert bloch_inequality_check(ptm).holds
        assert eta_bound(ptm) == want.max()
        assert len(calls) == 1
        assert ptm.singular_values is classify(ptm).singular_values
        with pytest.raises(ValueError):
            ptm.singular_values[0] = 0.0
